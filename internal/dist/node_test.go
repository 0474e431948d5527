package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestNodeRejectsMalformedPredicate sends CRC-valid filter frames whose
// predicate names a term outside the request's terms, or an unknown
// operator. Each must be answered with an error frame, and the node
// must go on serving: a well-formed filter request right after
// succeeds.
func TestNodeRejectsMalformedPredicate(t *testing.T) {
	c := newCluster(t, 1)
	_, addr := c.startNode("a", nil)
	wterms, err := toWireTerms(c.terms[:1])
	if err != nil {
		t.Fatal(err)
	}
	ids := c.targets()[:8]
	head, err := json.Marshal(map[string]any{"ids": ids, "terms": wterms})
	if err != nil {
		t.Fatal(err)
	}
	send := func(pred string) (byte, []byte) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		payload := fmt.Sprintf(`%s,"pred":%s}`, head[:len(head)-1], pred)
		if _, err := WriteFrame(conn, ftFilter, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		typ, res, _, err := ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("pred %s: no reply: %v", pred, err)
		}
		return typ, res
	}
	for _, bad := range []string{
		`[{"t":-1,"op":0,"c":20}]`, // T = -1
		`[{"t":1,"op":0,"c":20}]`,  // T = len(terms)
		`[{"t":0,"op":4,"c":20}]`,  // unknown operator
	} {
		if typ, res := send(bad); typ != ftError {
			t.Fatalf("pred %s: reply frame 0x%02x (%s), want an error frame", bad, typ, res)
		}
		typ, res := send(`[{"t":0,"op":0,"c":20}]`)
		if typ != ftFilterRes {
			t.Fatalf("after pred %s: well-formed request got frame 0x%02x (%s)", bad, typ, res)
		}
		var fr filterRes
		if err := json.Unmarshal(res, &fr); err != nil || len(fr.Keep) != len(ids) {
			t.Fatalf("after pred %s: filter reply %s (err %v), want %d decisions", bad, res, err, len(ids))
		}
	}
}
