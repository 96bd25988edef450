package transport

import (
	"bytes"
	"testing"
	"time"
)

// TestSyscallStatsBackends asserts the syscall ledger of the one I/O path:
// every wire syscall is a per-datagram read or write, the kernel-batched
// counters stay 0, and each syscall moves exactly one datagram.
func TestSyscallStatsBackends(t *testing.T) {
	// The subtest keeps the name the per-datagram path had when it was the
	// fallback to a kernel-batched backend.
	t.Run("fallback", func(t *testing.T) {
		u, err := NewUDP(2, WrapHandler(func(w int, p []byte) []Delivery {
			return []Delivery{{Worker: w, Packet: p}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		pkts := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
		if err := u.SendBatch(0, pkts); err != nil {
			t.Fatal(err)
		}
		bufs := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64)}
		n, err := u.RecvBatch(0, bufs, 2*time.Second)
		if err != nil || n != 3 {
			t.Fatalf("RecvBatch: n=%d err=%v", n, err)
		}
		if u.Backend() != "per-datagram" {
			t.Fatalf("Backend() = %q, want per-datagram", u.Backend())
		}
		s := u.SyscallStats()
		if s.SendFallback == 0 || s.RecvFallback == 0 || s.SentDatagrams == 0 || s.RecvDatagrams == 0 {
			t.Fatalf("no per-datagram traffic counted: %+v", s)
		}
		if s.Sendmmsg != 0 || s.Recvmmsg != 0 {
			t.Fatalf("kernel-batched counters moved: %+v", s)
		}
		if s.DatagramsPerSyscall() != 1 {
			t.Fatalf("datagrams/syscall = %v, want 1: %+v", s.DatagramsPerSyscall(), s)
		}
	})
}

// TestSendErrorsCounter asserts an oversized packet does not vanish:
// SendBatch reports the error AND the fabric counts the failed datagram,
// which still costs a syscall.
func TestSendErrorsCounter(t *testing.T) {
	// The subtest keeps the name the per-datagram path had when kernel
	// batching was switched off.
	t.Run("off", func(t *testing.T) {
		u, err := NewUDP(1, WrapHandler(func(w int, p []byte) []Delivery { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		huge := make([]byte, maxUDPPayload+1)
		if err := u.SendBatch(0, [][]byte{huge}); err == nil {
			t.Fatal("oversized SendBatch returned nil error")
		}
		if s := u.SyscallStats(); s.SendErrors != 1 || s.SendFallback != 1 || s.SentDatagrams != 0 {
			t.Fatalf("ledger after one failed send: %+v", s)
		}
		// A small packet still goes through after the failure.
		if err := u.SendBatch(0, [][]byte{[]byte("ok")}); err != nil {
			t.Fatalf("follow-up SendBatch: %v", err)
		}
	})
}

// TestDeliverCountsSendErrors asserts the switch downlink path counts
// failures too: a handler replying with an oversized packet trips the
// server's SendErrors counter instead of dropping silently.
func TestDeliverCountsSendErrors(t *testing.T) {
	u, err := NewUDP(1, WrapHandler(func(w int, p []byte) []Delivery {
		return []Delivery{{Worker: w, Packet: make([]byte, maxUDPPayload+1)}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendBatch(0, [][]byte{[]byte("ping")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if u.SyscallStats().SendErrors >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("SendErrors stayed at %d", u.SyscallStats().SendErrors)
}

// TestRecvBatchOversizedBurst asserts a burst of raw datagrams too large
// to share a batch frame reaches the worker whole: RecvBatch returns all
// three, none lost or truncated.
func TestRecvBatchOversizedBurst(t *testing.T) {
	u, err := NewUDP(1, WrapHandler(func(w int, p []byte) []Delivery {
		// Reply with 3 packets too large to share a frame: the downlink
		// must emit them as 3 raw datagrams.
		return []Delivery{
			{Worker: w, Packet: append(bytes.Repeat([]byte{1}, 40000), p...)},
			{Worker: w, Packet: append(bytes.Repeat([]byte{2}, 40000), p...)},
			{Worker: w, Packet: append(bytes.Repeat([]byte{3}, 40000), p...)},
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.SetBuffers(1 << 20)
	if err := u.SendBatch(0, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 3)
	n := 0
	deadline := time.Now().Add(2 * time.Second)
	for n < 3 && time.Now().Before(deadline) {
		m, err := u.RecvBatch(0, bufs[n:], time.Second)
		if err != nil && err != ErrTimeout {
			t.Fatal(err)
		}
		n += m
	}
	if n != 3 {
		t.Fatalf("received %d of 3 oversized replies", n)
	}
	seen := map[byte]bool{}
	for _, b := range bufs {
		if len(b) != 40001 {
			t.Fatalf("reply length %d, want 40001", len(b))
		}
		seen[b[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("replies not distinct: %v", seen)
	}
}

// TestReadBufPool asserts a pooled buffer keeps its full capacity across
// a get/reslice/put cycle.
func TestReadBufPool(t *testing.T) {
	b := getReadBuf()
	if len(b) != maxUDPPayload {
		t.Fatalf("fresh buffer len %d, want %d", len(b), maxUDPPayload)
	}
	putReadBuf(b[:7]) // simulate a short datagram reslice
	b = getReadBuf()
	if len(b) != maxUDPPayload {
		t.Fatalf("recycled buffer len %d, want %d", len(b), maxUDPPayload)
	}
	putReadBuf(b)
}

// TestGatherCoalesced pins the datagram layout: greedy frame packing,
// oversized singles alone, frameSingle on/off.
func TestGatherCoalesced(t *testing.T) {
	var sc sendScratch
	small := [][]byte{[]byte("a"), []byte("b")}
	dgrams := gatherCoalesced(&sc, 3, small, true)
	if len(dgrams) != 1 || dgrams[0][0] != BatchFrameID {
		t.Fatalf("two small packets should share one batch frame, got %d datagrams", len(dgrams))
	}
	lone := [][]byte{[]byte("solo")}
	dgrams = gatherCoalesced(&sc, 3, lone, true)
	if len(dgrams) != 1 || !bytes.Equal(dgrams[0], []byte("\x03solo")) {
		t.Fatalf("framed single mismatch: %x", dgrams[0])
	}
	dgrams = gatherCoalesced(&sc, 3, lone, false)
	if len(dgrams) != 1 || !bytes.Equal(dgrams[0], []byte("solo")) {
		t.Fatalf("raw single mismatch: %x", dgrams[0])
	}
	huge := make([]byte, maxUDPPayload+100)
	dgrams = gatherCoalesced(&sc, 3, [][]byte{[]byte("x"), huge, []byte("y")}, false)
	if len(dgrams) != 3 {
		t.Fatalf("oversized middle packet should split into 3 datagrams, got %d", len(dgrams))
	}
	if len(dgrams[1]) != len(huge) {
		t.Fatalf("oversized datagram length %d, want %d", len(dgrams[1]), len(huge))
	}
}
