package aggservice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fpisa/internal/core"
	"fpisa/internal/transport"
)

// This file is the runtime job lifecycle control plane: admitting a new
// tenant and evicting a leaving one without restarting the switch (or
// disturbing any other tenant's in-flight windows).
//
// A job id moves through three phases:
//
//	vacant ──AdmitWorkload──▶ admitted ──Evict──▶ draining ──release──▶ vacant
//
// Admission allocates a 2·Pool slot range from the free-list and binds it
// through the indirection table (jobState.rangeIdx). Eviction first drains:
// ADDs that would bind a NEW chunk are refused (counted, answered with an
// AckDraining notice) while chunks already in flight complete normally;
// when the last outstanding slot completes — or DrainTimeout passes — the
// range is reset and returned to the free-list for the next admission.

// Lifecycle errors. AdmitWorkload/Evict return these; the wire control
// plane maps them to AckStatus codes through ackErrs (and back, on the
// client).
var (
	// ErrUnknownJob names a job id outside the switch's capacity.
	ErrUnknownJob = errors.New("aggservice: job id outside the switch's capacity")
	// ErrNotAdmitted marks an evict for a job that is not currently live.
	ErrNotAdmitted = errors.New("aggservice: job not admitted")
	// ErrAlreadyAdmitted marks an admit for a live job.
	ErrAlreadyAdmitted = errors.New("aggservice: job already admitted")
	// ErrJobDraining marks admit/evict racing an eviction still draining.
	ErrJobDraining = errors.New("aggservice: job is draining")
	// ErrNoCapacity marks an admit with an empty slot-range free-list.
	ErrNoCapacity = errors.New("aggservice: no free slot range (evict a job or raise Capacity)")
	// ErrLifecycleDisabled marks a wire admit/evict on a switch whose
	// operator did not enable the runtime control plane.
	ErrLifecycleDisabled = errors.New("aggservice: runtime lifecycle disabled (enable Config.Dynamic)")
	// ErrJobEvicted is what a Worker's Reduce wraps when the switch
	// refuses its chunks because the job was evicted (or is draining).
	ErrJobEvicted = errors.New("aggservice: job evicted from the switch")
	// ErrBadWeight marks an admit with a scheduler weight outside what the
	// 16-bit wire field carries.
	ErrBadWeight = errors.New("aggservice: scheduler weight outside [0, MaxWeight]")
	// ErrBadProfile marks an admit whose numeric profile does not validate:
	// an unknown format or rounding octet, guard bits that leave the
	// mantissa register no headroom (Headroom() < 1), or
	// round-to-nearest-even without a guard bit to round with.
	ErrBadProfile = errors.New("aggservice: invalid numeric profile")
	// ErrBackpressure is what AckBackpressure maps to: the scheduler
	// deferred a new-chunk bind because the job is over its deficit while
	// other tenants hold unspent budget. It is transient by construction —
	// the deficit replenishes next round — and workers recover through
	// their retransmit path rather than surfacing it.
	ErrBackpressure = errors.New("aggservice: bind deferred by the fair scheduler (over deficit)")
)

// JobPhase is a job id's lifecycle state.
type JobPhase uint8

const (
	// PhaseVacant: the id holds no slot range; ADDs are refused with an
	// AckEvicted notice.
	PhaseVacant JobPhase = iota
	// PhaseAdmitted: the id owns a slot range and aggregates normally.
	PhaseAdmitted
	// PhaseDraining: eviction in progress — in-flight chunks may
	// complete, new chunk binds are refused.
	PhaseDraining
)

func (p JobPhase) String() string {
	switch p {
	case PhaseVacant:
		return "vacant"
	case PhaseAdmitted:
		return "admitted"
	case PhaseDraining:
		return "draining"
	}
	return fmt.Sprintf("JobPhase(%d)", uint8(p))
}

// LifecycleEvent tags an OnLifecycle callback.
type LifecycleEvent uint8

const (
	// EventAdmitted fires when AdmitWorkload binds a job to a slot range.
	EventAdmitted LifecycleEvent = iota
	// EventDraining fires when Evict begins draining a job.
	EventDraining
	// EventEvicted fires when the drained (or timed-out) range is
	// released back to the free-list.
	EventEvicted
)

func (e LifecycleEvent) String() string {
	switch e {
	case EventAdmitted:
		return "admitted"
	case EventDraining:
		return "draining"
	case EventEvicted:
		return "evicted"
	}
	return fmt.Sprintf("LifecycleEvent(%d)", uint8(e))
}

// AckStatus is the status octet of a MsgJobAck.
type AckStatus uint8

const (
	// AckAdmitted answers a successful MsgJobAdmit.
	AckAdmitted AckStatus = iota
	// AckEvicting answers a successful MsgJobEvict (drain begun, possibly
	// already finished).
	AckEvicting
	// AckEvicted is the unsolicited notice sent to a worker whose ADDs
	// name a vacant (evicted) job.
	AckEvicted
	// AckDraining is the unsolicited notice sent to a worker whose ADD
	// tried to bind a new chunk while its job drains.
	AckDraining
	// AckErrUnknownJob: the request named a job id outside the capacity.
	AckErrUnknownJob
	// AckErrNotAdmitted: evict for a job that is not live.
	AckErrNotAdmitted
	// AckErrAlreadyAdmitted: admit for a live job.
	AckErrAlreadyAdmitted
	// AckErrDraining: admit/evict while the id's old incarnation drains.
	AckErrDraining
	// AckErrNoCapacity: admit with an empty free-list.
	AckErrNoCapacity
	// AckErrDisabled: the switch does not enable the wire control plane.
	AckErrDisabled
	// AckBackpressure is the unsolicited notice sent to a worker whose ADD
	// tried to bind a new chunk while its job was over its deficit-round-
	// robin budget: the bind is deferred, not lost — the worker backs its
	// adaptive batch off and recovers the chunk by retransmit once the
	// scheduler round turns over.
	AckBackpressure
	// AckErrBadProfile: the admit carried a numeric profile that does not
	// validate (unknown octet, no headroom, or RNE without guard bits).
	AckErrBadProfile
	// AckErrBadClass: the admit carried a workload-class descriptor that
	// does not validate — or, as an unsolicited notice, a data-plane
	// message reached a job of the wrong class (an ADD to an analytics
	// job, a tuple to a training job, or an unprovisioned tuple op).
	AckErrBadClass
)

func (a AckStatus) String() string {
	switch a {
	case AckAdmitted:
		return "admitted"
	case AckEvicting:
		return "evicting"
	case AckEvicted:
		return "evicted"
	case AckDraining:
		return "draining"
	case AckErrUnknownJob:
		return "error: unknown job"
	case AckErrNotAdmitted:
		return "error: not admitted"
	case AckErrAlreadyAdmitted:
		return "error: already admitted"
	case AckErrDraining:
		return "error: draining"
	case AckErrNoCapacity:
		return "error: no capacity"
	case AckErrDisabled:
		return "error: lifecycle disabled"
	case AckBackpressure:
		return "backpressure"
	case AckErrBadProfile:
		return "error: bad numeric profile"
	case AckErrBadClass:
		return "error: bad workload class"
	}
	return fmt.Sprintf("AckStatus(%d)", uint8(a))
}

// ackErrs is the one status↔error table: AckStatus.Err reads it forward,
// and ackStatusOf reads it backward to answer a refused wire admit/evict
// with the status its error names. A nil entry is a success status.
var ackErrs = [...]error{
	AckAdmitted:           nil,
	AckEvicting:           nil,
	AckEvicted:            ErrJobEvicted,
	AckDraining:           ErrJobEvicted,
	AckErrUnknownJob:      ErrUnknownJob,
	AckErrNotAdmitted:     ErrNotAdmitted,
	AckErrAlreadyAdmitted: ErrAlreadyAdmitted,
	AckErrDraining:        ErrJobDraining,
	AckErrNoCapacity:      ErrNoCapacity,
	AckErrDisabled:        ErrLifecycleDisabled,
	AckBackpressure:       ErrBackpressure,
	AckErrBadProfile:      ErrBadProfile,
	AckErrBadClass:        ErrBadClass,
}

// Err maps an ack status back to its sentinel error: nil for the success
// acks, ErrJobEvicted for the worker notices, and the matching lifecycle
// error otherwise — so a wire client can errors.Is exactly like an
// in-process caller.
func (a AckStatus) Err() error {
	if int(a) < len(ackErrs) {
		return ackErrs[a]
	}
	return fmt.Errorf("aggservice: unknown ack status %d", uint8(a))
}

// ackStatusOf maps a lifecycle error to the first status whose sentinel it
// wraps — including a refusal relayed from a tree leaf's parent. Errors
// with no status of their own (an unreachable parent, a bad weight) answer
// AckErrUnknownJob.
func ackStatusOf(err error) AckStatus {
	for st, e := range ackErrs {
		if e != nil && errors.Is(err, e) {
			return AckStatus(st)
		}
	}
	return AckErrUnknownJob
}

// JobAdmit is a MsgJobAdmit request: admit Job at runtime with a
// deficit-round-robin scheduler weight, a numeric profile and a workload
// class. Weight 0 means unspecified (the switch clamps it to 1); the zero
// Profile is f32/trunc and the zero Class is training. The switch
// validates all three at admission and echoes what it applied in the ack.
type JobAdmit struct {
	Job, Weight int
	Profile     core.NumericProfile
	Class       AdmitClass
}

// EncodeJobAdmit builds an operator request to admit a job at runtime.
func EncodeJobAdmit(m JobAdmit) []byte {
	pkt := make([]byte, jobAdmitBytes)
	pkt[0] = WireVersion
	pkt[1] = MsgJobAdmit
	binary.BigEndian.PutUint16(pkt[2:], uint16(m.Job))
	binary.BigEndian.PutUint16(pkt[4:], uint16(m.Weight))
	putProfile(pkt[6:], m.Profile)
	putAdmitClass(pkt[6+profileBytes:], m.Class)
	return pkt
}

// DecodeJobAdmit parses a MsgJobAdmit. Safe on arbitrary input: truncation
// returns a wire error wrapping ErrTruncated, oversized frames are
// rejected. The weight, profile and class are returned as carried — the
// admission path, not the decoder, clamps weight 0 to 1 and validates the
// profile and class, so a round trip is byte-exact.
func DecodeJobAdmit(pkt []byte) (JobAdmit, error) {
	if typ, terr := wireType(pkt); terr != nil {
		return JobAdmit{}, fmt.Errorf("bad job admit: %w", terr)
	} else if typ != MsgJobAdmit {
		return JobAdmit{}, fmt.Errorf("aggservice: bad job admit type")
	}
	if len(pkt) < jobAdmitBytes {
		return JobAdmit{}, fmt.Errorf("job admit %d of %d bytes: %w", len(pkt), jobAdmitBytes, ErrTruncated)
	}
	if len(pkt) > jobAdmitBytes {
		return JobAdmit{}, fmt.Errorf("aggservice: %d trailing bytes after job admit", len(pkt)-jobAdmitBytes)
	}
	return JobAdmit{
		Job:     int(binary.BigEndian.Uint16(pkt[2:])),
		Weight:  int(binary.BigEndian.Uint16(pkt[4:])),
		Profile: getProfile(pkt[6:]),
		Class:   getAdmitClass(pkt[6+profileBytes:]),
	}, nil
}

// EncodeJobEvict builds an operator request to evict (drain) job.
func EncodeJobEvict(job int) []byte {
	pkt := make([]byte, lifecycleReqBytes)
	pkt[0] = WireVersion
	pkt[1] = MsgJobEvict
	binary.BigEndian.PutUint16(pkt[2:], uint16(job))
	return pkt
}

// JobAck is a MsgJobAck: a lifecycle status for Job plus the job's
// incarnation epoch octet — what its workers stamp into their ADDs
// (Worker.Epoch) — and its scheduler weight, numeric profile and workload
// class. Control-plane replies echo the incarnation the request landed
// on: for a successful admit, the NEW incarnation's epoch and the weight,
// profile and class the switch actually applied. Worker-facing notices
// carry the offending datagram's epoch, a weight of 0 where no live weight
// exists, and the zero profile and class.
type JobAck struct {
	Job     int
	Status  AckStatus
	Epoch   uint8
	Weight  int
	Profile core.NumericProfile
	Class   AdmitClass
}

// EncodeJobAck builds a lifecycle status message.
func EncodeJobAck(a JobAck) []byte {
	pkt := make([]byte, jobAckBytes)
	pkt[0] = WireVersion
	pkt[1] = MsgJobAck
	binary.BigEndian.PutUint16(pkt[2:], uint16(a.Job))
	pkt[4] = uint8(a.Status)
	pkt[5] = a.Epoch
	binary.BigEndian.PutUint16(pkt[6:], uint16(a.Weight))
	putProfile(pkt[8:], a.Profile)
	putAdmitClass(pkt[8+profileBytes:], a.Class)
	return pkt
}

// DecodeJobAck parses a MsgJobAck. Like DecodeStatsReply it is safe on
// arbitrary input: truncation returns a wire error wrapping ErrTruncated,
// and an unknown status is rejected. The profile and class octets are
// returned as carried (never validated or clamped), so a round trip is
// byte-exact.
func DecodeJobAck(pkt []byte) (JobAck, error) {
	if typ, terr := wireType(pkt); terr != nil {
		return JobAck{}, fmt.Errorf("bad job ack: %w", terr)
	} else if typ != MsgJobAck {
		return JobAck{}, fmt.Errorf("aggservice: bad job ack type")
	}
	if len(pkt) < jobAckBytes {
		return JobAck{}, fmt.Errorf("job ack %d of %d bytes: %w", len(pkt), jobAckBytes, ErrTruncated)
	}
	if len(pkt) > jobAckBytes {
		return JobAck{}, fmt.Errorf("aggservice: %d trailing bytes after job ack", len(pkt)-jobAckBytes)
	}
	if int(pkt[4]) >= len(ackErrs) {
		return JobAck{}, fmt.Errorf("aggservice: unknown ack status %d", pkt[4])
	}
	return JobAck{
		Job:     int(binary.BigEndian.Uint16(pkt[2:])),
		Status:  AckStatus(pkt[4]),
		Epoch:   pkt[5],
		Weight:  int(binary.BigEndian.Uint16(pkt[6:])),
		Profile: getProfile(pkt[8:]),
		Class:   getAdmitClass(pkt[8+profileBytes:]),
	}, nil
}

// handleLifecycle serves a wire MsgJobAdmit/MsgJobEvict. Only the
// out-of-band observer frame may drive the control plane — a tenant's
// worker port must not be able to evict another tenant — and only when the
// operator enabled Config.Dynamic.
func (s *Switch) handleLifecycle(worker int, typ byte, pkt []byte, out *transport.DeliveryList) {
	if worker != ObserverWorker {
		s.rejMalformed.Add(1)
		return
	}
	var req JobAdmit
	if typ == MsgJobAdmit {
		var derr error
		if req, derr = DecodeJobAdmit(pkt); derr != nil {
			s.rejMalformed.Add(1)
			return
		}
	} else {
		if len(pkt) != lifecycleReqBytes {
			s.rejMalformed.Add(1)
			return
		}
		req.Job = int(binary.BigEndian.Uint16(pkt[2:]))
	}
	job := req.Job
	var err error
	ok := AckAdmitted
	switch {
	case !s.cfg.Dynamic:
		err = ErrLifecycleDisabled
	case typ == MsgJobAdmit:
		err = s.AdmitWorkload(job, req.Weight, req.Profile, req.Class)
	default:
		ok = AckEvicting
		err = s.Evict(job)
	}
	if err != nil {
		ok = ackStatusOf(err)
	}
	// The echoed epoch, weight, profile and class are the incarnation the
	// request landed on: for a successful admit that is the NEW
	// incarnation's octet — which the operator hands to the job's workers —
	// plus the weight, profile and class actually applied (a requested
	// weight 0 comes back as the clamped 1, so the client can detect the
	// clamp).
	out.Unicast(worker, EncodeJobAck(JobAck{Job: job, Status: ok,
		Epoch: s.JobEpoch(job), Weight: s.JobWeight(job), Profile: s.JobProfile(job), Class: s.JobClass(job)}))
}

// AdmitProfile brings a vacant job id live as a training job with the
// given deficit-round-robin scheduler weight and numeric profile — exactly
// AdmitWorkload with the zero class descriptor. Under contention the job's
// new-chunk binds get weight shares of pipeline time relative to the other
// admitted tenants, and every value the job aggregates runs through the
// arithmetic the profile names. A weight of 0 (the wire's "unspecified") is
// clamped to 1; weights above MaxWeight are refused with ErrBadWeight; a
// profile that does not validate (unknown octet, Headroom() < 1, or RNE
// without guard bits) is refused with ErrBadProfile before any state moves.
//
// The profile's compiled aggregator is fetched from the switch's per-profile
// program cache — distinct profiles compile once per switch, and every shard
// of every job sharing a profile shares the compiled program, replicated
// into per-range state. The banks are installed under each shard's lock
// BEFORE the range and phase publish, so the hot path can never observe an
// admitted job without its arithmetic.
func (s *Switch) AdmitProfile(job, weight int, prof core.NumericProfile) error {
	return s.AdmitWorkload(job, weight, prof, AdmitClass{})
}

// AdmitWorkload brings a vacant job id live under a workload class. The
// zero descriptor admits a training tenant; a
// query or telemetry descriptor provisions the job's analytics state — the
// pruning registers, FPISA group accumulators, LPM classifier, heavy-hitter
// rows and latency histogram the class calls for — on the job's home shard
// instead of per-shard training banks. A descriptor that does not validate
// (see Config.validateClass) is refused with ErrBadClass before any state
// moves. Analytics classes are refused on tree leaves: tuples carry keys,
// not slot-addressed partial sums, so they cannot climb an aggregation tree.
func (s *Switch) AdmitWorkload(job, weight int, prof core.NumericProfile, ac AdmitClass) error {
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	if weight < 0 || weight > MaxWeight {
		return fmt.Errorf("%w: job %d weight %d", ErrBadWeight, job, weight)
	}
	if weight == 0 {
		weight = 1
	}
	if err := prof.Validate(); err != nil {
		return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, err)
	}
	if err := s.cfg.validateClass(ac); err != nil {
		return fmt.Errorf("job %d: %w", job, err)
	}
	if ac.Class != ClassTraining && s.cfg.Uplink != nil {
		return fmt.Errorf("%w: job %d: analytics classes cannot run on a tree leaf", ErrBadClass, job)
	}
	// A tree leaf negotiates the admission UP the tree before it takes
	// effect locally: the parent must run the same job under the same
	// profile before any partial sum can climb, and its ack names the
	// parent-level incarnation epoch the uplink ADDs will stamp. Done
	// before lifeMu — the negotiation is network I/O on a wire control
	// path and must not stall other tenants' lifecycle transitions.
	var parentEpoch uint8
	if u := s.cfg.Uplink; u != nil && u.Control != nil {
		pe, err := u.Control.AdmitUp(job, weight, prof)
		if err != nil {
			return fmt.Errorf("aggservice: job %d parent admit: %w", job, err)
		}
		parentEpoch = pe
	}
	// Analytics state (pruning registers, accumulators, LPM, sketch rows)
	// is built before any lock: the FPISA compile is the slow part and must
	// not stall other tenants' lifecycle transitions.
	var an *analyticsJob
	if ac.Class != ClassTraining {
		var berr error
		if an, berr = s.buildAnalytics(ac, prof); berr != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadClass, job, berr)
		}
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	switch JobPhase(js.phase.Load()) {
	case PhaseAdmitted:
		return fmt.Errorf("%w: job %d", ErrAlreadyAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	if len(s.freeRanges) == 0 {
		return fmt.Errorf("%w: job %d", ErrNoCapacity, job)
	}
	var proto *core.ProfileAggregator
	if an == nil {
		var perr error
		if proto, perr = s.getProtoLocked(prof); perr != nil {
			return fmt.Errorf("%w: job %d: %v", ErrBadProfile, job, perr)
		}
	}
	ri := s.freeRanges[len(s.freeRanges)-1]
	s.freeRanges = s.freeRanges[:len(s.freeRanges)-1]
	js.reset()
	js.weight.Store(int32(weight))
	js.profBits.Store(prof.Pack())
	js.classBits.Store(packClass(ac))
	// Install the range's state before the range publishes: the hot path
	// loads phase, then the profile, then the range, and revalidates the
	// epoch under the shard lock — so once it can see the range it is
	// guaranteed to find the bank (or analytics state) behind it. A
	// training job gets per-shard aggregator banks; an analytics job's
	// state lives on its home shard alone, guarded by that shard's lock.
	if an != nil {
		hs := s.shards[s.homeShard(ri)]
		hs.mu.Lock()
		s.analytics[job] = an
		hs.mu.Unlock()
	} else {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.agg[ri] = proto.Replicate()
			sh.mu.Unlock()
		}
	}
	// Publish range before phase: the hot path loads phase first, so it
	// never sees an admitted job without its range.
	js.rangeIdx.Store(int32(ri))
	js.phase.Store(int32(PhaseAdmitted))
	s.startUplinkLocked(job, parentEpoch)
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventAdmitted)
	}
	return nil
}

// Evict starts draining a live job: new chunk binds are refused from now
// on, in-flight chunks may complete, and the slot range is released to the
// free-list when the job quiesces — or after Config.DrainTimeout, whichever
// comes first. Evict returns once the drain has begun (it may also already
// have finished, when the job had nothing outstanding).
func (s *Switch) Evict(job int) error {
	if job < 0 || job >= s.ncap {
		return fmt.Errorf("%w: job %d of %d", ErrUnknownJob, job, s.ncap)
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	switch JobPhase(js.phase.Load()) {
	case PhaseVacant:
		return fmt.Errorf("%w: job %d", ErrNotAdmitted, job)
	case PhaseDraining:
		return fmt.Errorf("%w: job %d", ErrJobDraining, job)
	}
	js.phase.Store(int32(PhaseDraining))
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventDraining)
	}
	if js.outstanding.Load() == 0 {
		s.release(job)
		return nil
	}
	// The timer closure captures this incarnation's epoch: a callback that
	// fired during release (Stop raced) and only later wins lifeMu must
	// not cut short a LATER incarnation's drain.
	epoch := js.epoch.Load()
	s.drainTimers[job] = time.AfterFunc(s.cfg.drainTimeout(), func() {
		s.lifeMu.Lock()
		defer s.lifeMu.Unlock()
		if js.epoch.Load() == epoch && JobPhase(js.phase.Load()) == PhaseDraining {
			s.release(job)
		}
	})
	return nil
}

// maybeFinishDrain releases a draining job's range once nothing is
// outstanding. Called from the hot path after a completion (outside the
// shard lock — release re-takes every shard lock it needs).
func (s *Switch) maybeFinishDrain(job int) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	js := &s.jobs[job]
	if JobPhase(js.phase.Load()) == PhaseDraining && js.outstanding.Load() == 0 {
		s.release(job)
	}
}

// release returns a job's slot range to the free-list, resetting every
// slot (freeing cached RESULTs, unbinding chunks, clearing quota charges)
// so the next admission starts clean. Caller holds lifeMu.
func (s *Switch) release(job int) {
	js := &s.jobs[job]
	ri := int(js.rangeIdx.Load())
	// Unpublish before touching slots: once the epoch moves and the range
	// entry is cleared, the hot path's under-lock revalidation guarantees
	// no ADD (and no deferred cache-free) can reach these slots while —
	// or after — they reset, even if a later admission hands the same
	// range back to this same job id.
	js.epoch.Add(1)
	js.phase.Store(int32(PhaseVacant))
	js.rangeIdx.Store(-1)
	if t := s.drainTimers[job]; t != nil {
		t.Stop()
		s.drainTimers[job] = nil
	}
	// Stop the incarnation's uplink client (tree leaves): aggregates the
	// parent still owed it are stale now — the epoch moved — and a fresh
	// admission starts a fresh client.
	s.stopUplink(job)
	if ri >= 0 {
		base := ri * 2 * s.cfg.Pool
		for gs := base; gs < base+2*s.cfg.Pool; gs++ {
			sh := s.shards[gs%s.nsh]
			sh.mu.Lock()
			st := &sh.slot[gs/s.nsh]
			st.chunk = -1
			for i := range st.seen {
				st.seen[i] = false
			}
			st.nSeen = 0
			st.cached = nil
			st.outstanding = false
			st.upPending = false
			sh.mu.Unlock()
		}
		s.freeRanges = append(s.freeRanges, ri)
	}
	// Return the job's unspent scheduler deficit on every shard, and tear
	// down the range's aggregator banks — the compiled program stays cached
	// on the switch (keyed by profile), only this incarnation's per-slot
	// state is dropped. An analytics incarnation's state is cleared under
	// its home shard's lock in the same pass, for the same reason the
	// banks are: the epoch moved above, so no tuple or drain for this
	// incarnation can fold after its shard section here.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.sched.forfeit(job)
		if ri >= 0 {
			sh.agg[ri] = nil
			if si == s.homeShard(ri) {
				s.analytics[job] = nil
			}
		}
		sh.mu.Unlock()
	}
	js.profBits.Store(0)
	js.classBits.Store(0)
	js.weight.Store(0)
	js.outstanding.Store(0)
	js.cacheBytes.Store(0)
	if s.OnLifecycle != nil {
		s.OnLifecycle(job, EventEvicted)
	}
}

// JobRange reports the slot range the indirection table currently assigns
// to job; ok is false when the job holds none (vacant or out of range).
func (s *Switch) JobRange(job int) (base, n int, ok bool) {
	if job < 0 || job >= s.ncap {
		return 0, 0, false
	}
	ri := int(s.jobs[job].rangeIdx.Load())
	if ri < 0 {
		return 0, 0, false
	}
	return ri * 2 * s.cfg.Pool, 2 * s.cfg.Pool, true
}

// JobPhaseOf reports a job id's current lifecycle phase (PhaseVacant for
// ids outside the capacity).
func (s *Switch) JobPhaseOf(job int) JobPhase {
	if job < 0 || job >= s.ncap {
		return PhaseVacant
	}
	return JobPhase(s.jobs[job].phase.Load())
}

// JobEpoch reports a job id's current wire incarnation epoch — the octet
// its workers must stamp into their ADDs (0 for ids outside the capacity,
// and for every job's first incarnation). The full release counter is
// truncated to the eight bits the wire carries.
func (s *Switch) JobEpoch(job int) uint8 {
	if job < 0 || job >= s.ncap {
		return 0
	}
	return uint8(s.jobs[job].epoch.Load())
}

// JobProfile reports a job id's current numeric profile: the profile the
// admission applied for live jobs, the default (f32) profile for vacant ids
// and ids outside the capacity.
func (s *Switch) JobProfile(job int) core.NumericProfile {
	if job < 0 || job >= s.ncap {
		return core.DefaultProfile
	}
	return core.UnpackProfile(s.jobs[job].profBits.Load())
}

// JobWeight reports a job id's current deficit-round-robin scheduler
// weight: 0 for vacant ids (and ids outside the capacity), the weight the
// admission applied otherwise.
func (s *Switch) JobWeight(job int) int {
	if job < 0 || job >= s.ncap {
		return 0
	}
	return int(s.jobs[job].weight.Load())
}
