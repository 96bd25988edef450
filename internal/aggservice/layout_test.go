package aggservice

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestWireLayoutDocMatchesEncoders keeps ARCHITECTURE.md, the one written
// description of the wire layouts, in step with the codecs: every
// fixed-size "### NAME — N bytes" heading must name a message whose
// encoder emits exactly N bytes, and every fixed-size message must have
// its heading. A widening that forgets the doc fails here.
func TestWireLayoutDocMatchesEncoders(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	encoders := map[string][]byte{
		"STATS request": EncodeStatsReq(0),
		"STATS reply":   encodeStatsReply(0, JobStats{}),
		"JOB ADMIT":     EncodeJobAdmit(JobAdmit{}),
		"JOB EVICT":     EncodeJobEvict(0),
		"JOB ACK":       EncodeJobAck(JobAck{}),
		"DRAIN":         EncodeDrain(0, DrainGroups, 0, 0),
	}
	heading := regexp.MustCompile(`(?m)^### (.+?) — (\d+) bytes$`)
	seen := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(doc), -1) {
		name := m[1]
		n, _ := strconv.Atoi(m[2])
		pkt, ok := encoders[name]
		if !ok {
			t.Errorf("ARCHITECTURE.md documents a %d-byte %q message no encoder here checks", n, name)
			continue
		}
		seen[name] = true
		if len(pkt) != n {
			t.Errorf("ARCHITECTURE.md says %s is %d bytes; the encoder emits %d", name, n, len(pkt))
		}
	}
	for name, pkt := range encoders {
		if !seen[name] {
			t.Errorf("ARCHITECTURE.md has no \"### %s — %d bytes\" heading", name, len(pkt))
		}
	}
}
