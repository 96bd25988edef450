package pisa

import (
	"encoding/binary"
	"fmt"
)

// maxRecirculations caps packet recirculation, which on real hardware is
// bandwidth-constrained and costly (§2.3 footnote 3).
const maxRecirculations = 16

// Emission is one packet leaving the switch.
type Emission struct {
	Port   uint16
	Packet []byte
}

// Counters exposes switch observability.
type Counters struct {
	Received      uint64
	Dropped       uint64
	Emitted       uint64
	Recirculated  uint64
	ParserErrors  uint64
	RuntimeErrors uint64
}

// Switch is a compiled program instantiated with runtime register state.
// The compiled program itself is immutable and may be shared by many
// switches (Replicate); each switch owns its register bank and counters.
type Switch struct {
	c        *compiled
	regs     []*registerArray
	tstats   []tableStat
	mcast    map[uint16][]uint16
	counters Counters
	// snap and writes are runGress's per-stage scratch (the stage-entry
	// PHV snapshot and the pending field writes), reused so that a pass
	// through the stages allocates nothing per stage. Like the register
	// bank, they make one Switch unsafe for concurrent Process calls.
	snap   *Phv
	writes map[fieldID]uint32
	// Trace, when set, receives one call per executed table.
	Trace func(gress string, stage int, table, action string)
}

// tableStat holds one table's observability counters.
type tableStat struct {
	hits, misses uint64
}

// New compiles the program for the architecture and instantiates a switch.
func New(prog Program, arch Arch) (*Switch, error) {
	c, err := compile(prog, arch)
	if err != nil {
		return nil, err
	}
	return newInstance(c), nil
}

func newInstance(c *compiled) *Switch {
	return &Switch{
		c:      c,
		regs:   c.newRegisterBank(),
		tstats: make([]tableStat, len(c.declared)),
		mcast:  make(map[uint16][]uint16),
		snap:   newPhv(c.ft),
		writes: make(map[fieldID]uint32),
	}
}

// Replicate instantiates another pipeline running the same compiled
// program with fresh (zeroed) register state and counters. It skips the
// compile entirely — the match tables, actions and dependency analysis are
// shared — so building N parallel pipeline replicas costs N register
// banks, not N compilations. Replicas process packets independently:
// concurrent Process calls on *different* replicas are safe.
func (s *Switch) Replicate() *Switch {
	return newInstance(s.c)
}

// Utilization returns the compiled resource report (paper Table 3).
func (s *Switch) Utilization() Utilization { return s.c.util }

// Arch returns the architecture the program was compiled against.
func (s *Switch) Arch() Arch { return s.c.arch }

// SetMcastGroup installs a traffic-manager multicast group.
func (s *Switch) SetMcastGroup(id uint16, ports []uint16) {
	s.mcast[id] = append([]uint16(nil), ports...)
}

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters { return s.counters }

// TableStats returns hit/miss counters for a table.
func (s *Switch) TableStats(name string) (hits, misses uint64, err error) {
	t, ok := s.c.tables[name]
	if !ok {
		return 0, 0, fmt.Errorf("pisa: unknown table %q", name)
	}
	st := s.tstats[t.idx]
	return st.hits, st.misses, nil
}

// register resolves a register name to this switch's runtime array.
func (s *Switch) register(name string) (*registerArray, error) {
	id, ok := s.c.regIDs[name]
	if !ok {
		return nil, fmt.Errorf("pisa: unknown register %q", name)
	}
	return s.regs[id], nil
}

// RegisterSnapshot copies a register array's contents (control-plane read).
func (s *Switch) RegisterSnapshot(name string) ([]uint32, error) {
	r, err := s.register(name)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(r.vals))
	copy(out, r.vals)
	return out, nil
}

// WriteRegister sets one register element (control-plane write).
func (s *Switch) WriteRegister(name string, index int, val uint32) error {
	r, err := s.register(name)
	if err != nil {
		return err
	}
	if index < 0 || index >= len(r.vals) {
		return fmt.Errorf("pisa: register %q index %d out of range", name, index)
	}
	r.vals[index] = val & r.mask()
	return nil
}

// ResetRegisters zeroes all register arrays.
func (s *Switch) ResetRegisters() {
	for _, r := range s.regs {
		for i := range r.vals {
			r.vals[i] = 0
		}
	}
}

// Process runs one packet through the full pipeline and returns the emitted
// packets (possibly none if dropped, several if multicast).
func (s *Switch) Process(ingressPort uint16, pkt []byte) ([]Emission, error) {
	return s.process(ingressPort, pkt, 0)
}

func (s *Switch) process(ingressPort uint16, pkt []byte, depth int) ([]Emission, error) {
	s.counters.Received++
	phv := newPhv(s.c.ft)
	id, _ := s.c.ft.lookup(FieldIngressPort)
	phv.set(id, uint32(ingressPort))

	if err := s.parse(phv, pkt); err != nil {
		s.counters.ParserErrors++
		return nil, err
	}

	if err := s.runGress(phv, s.c.ingress, "ingress"); err != nil {
		s.counters.RuntimeErrors++
		return nil, err
	}

	if v, _ := phv.Get(FieldDrop); v != 0 {
		s.counters.Dropped++
		return nil, nil
	}

	// Traffic manager: replicate to the multicast group or unicast.
	var ports []uint16
	if g, _ := phv.Get(FieldMcastGroup); g != 0 {
		ports = s.mcast[uint16(g)]
		if len(ports) == 0 {
			s.counters.Dropped++
			return nil, nil
		}
	} else {
		p, _ := phv.Get(FieldEgressPort)
		ports = []uint16{uint16(p)}
	}

	var out []Emission
	for _, port := range ports {
		copyPhv := phv.clone()
		eid, _ := s.c.ft.lookup(FieldEgressPort)
		copyPhv.set(eid, uint32(port))
		if err := s.runGress(copyPhv, s.c.egress, "egress"); err != nil {
			s.counters.RuntimeErrors++
			return nil, err
		}
		if v, _ := copyPhv.Get(FieldDrop); v != 0 {
			s.counters.Dropped++
			continue
		}
		emitted := s.deparse(copyPhv, pkt)
		if r, _ := copyPhv.Get(FieldRecirc); r != 0 {
			if depth >= maxRecirculations {
				return nil, fmt.Errorf("pisa: recirculation limit %d exceeded", maxRecirculations)
			}
			s.counters.Recirculated++
			more, err := s.process(port, emitted, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, more...)
			continue
		}
		s.counters.Emitted++
		out = append(out, Emission{Port: port, Packet: emitted})
	}
	return out, nil
}

// runGress executes one pipeline's stages. Each stage matches all its tables
// against the stage-entry PHV snapshot and applies the writes afterwards —
// the parallel-MAU semantics the compiler's conflict checks assume.
func (s *Switch) runGress(phv *Phv, stages [][]*cTable, gress string) error {
	for si, tables := range stages {
		if len(tables) == 0 {
			continue
		}
		snapshot, writes := s.snap, s.writes
		copy(snapshot.vals, phv.vals)
		clear(writes)
		for _, t := range tables {
			h, hit := t.match(snapshot)
			if hit {
				s.tstats[t.idx].hits++
			} else {
				s.tstats[t.idx].misses++
			}
			if h.action == nil {
				continue
			}
			a := h.action
			if s.Trace != nil {
				s.Trace(gress, si, t.decl.Name, a.name)
			}
			for i := range a.instrs {
				val, ok := a.instrs[i].eval(snapshot, h.params)
				if ok {
					writes[a.instrs[i].dst] = val
				}
			}
			if a.stateful != nil {
				if err := a.stateful.exec(s.regs, snapshot, writes); err != nil {
					return err
				}
			}
		}
		for f, v := range writes {
			phv.set(f, v)
		}
	}
	return nil
}

// parse extracts configured byte ranges into PHV fields. Network hardware
// parses big-endian; extracts flagged HostLittleEndian are converted by the
// §4.2 parser extension (compilation guaranteed the feature is present).
func (s *Switch) parse(phv *Phv, pkt []byte) error {
	for _, e := range s.c.parser {
		if e.offset+e.bytes > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short: need %d bytes for field %q, have %d",
				e.offset+e.bytes, s.c.ft.name(e.field), len(pkt))
		}
		b := pkt[e.offset : e.offset+e.bytes]
		var v uint32
		switch e.bytes {
		case 1:
			v = uint32(b[0])
		case 2:
			if e.le {
				v = uint32(binary.LittleEndian.Uint16(b))
			} else {
				v = uint32(binary.BigEndian.Uint16(b))
			}
		case 4:
			if e.le {
				v = binary.LittleEndian.Uint32(b)
			} else {
				v = binary.BigEndian.Uint32(b)
			}
		}
		phv.set(e.field, v)
	}
	for _, e := range s.c.parserBits {
		end := (e.bitOffset + e.bits + 7) / 8
		if end > len(pkt) {
			return fmt.Errorf("pisa: parser: packet too short for bit field %q", s.c.ft.name(e.field))
		}
		phv.set(e.field, extractBits(pkt, e.bitOffset, e.bits))
	}
	return nil
}

// extractBits reads a network-bit-order bit range: bit 0 is the MSB of
// byte 0.
func extractBits(pkt []byte, bitOff, bits int) uint32 {
	var v uint32
	for i := 0; i < bits; i++ {
		pos := bitOff + i
		bit := pkt[pos/8] >> (7 - pos%8) & 1
		v = v<<1 | uint32(bit)
	}
	return v
}

// deparse writes PHV fields back into a copy of the original packet.
func (s *Switch) deparse(phv *Phv, pkt []byte) []byte {
	out := make([]byte, len(pkt))
	copy(out, pkt)
	for _, e := range s.c.parser {
		if !e.wb || e.offset+e.bytes > len(out) {
			continue
		}
		v := phv.get(e.field)
		b := out[e.offset : e.offset+e.bytes]
		switch e.bytes {
		case 1:
			b[0] = byte(v)
		case 2:
			if e.le {
				binary.LittleEndian.PutUint16(b, uint16(v))
			} else {
				binary.BigEndian.PutUint16(b, uint16(v))
			}
		case 4:
			if e.le {
				binary.LittleEndian.PutUint32(b, v)
			} else {
				binary.BigEndian.PutUint32(b, v)
			}
		}
	}
	return out
}
