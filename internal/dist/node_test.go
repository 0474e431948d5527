package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"masksearch/internal/core"
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

// TestNodeRejectsOutOfDomainRange sends a CRC-valid filter frame whose
// term range lies below 0, after a first request has indexed the
// targets so the node computes CHI bounds. The node must answer with
// an error frame and go on serving.
func TestNodeRejectsOutOfDomainRange(t *testing.T) {
	c := newCluster(t, 1)
	_, addr := c.startNode("a", nil)
	ids := c.targets()[:8]
	send := func(vr core.ValueRange) (byte, []byte) {
		t.Helper()
		term := c.terms[1] // the full frame: touches cell 0
		term.Range = vr
		wterms, err := toWireTerms([]core.CPTerm{term})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(map[string]any{"ids": ids, "terms": wterms, "pred": []wireCmp{{T: 0, Op: core.OpGt, C: 20}}})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := WriteFrame(conn, ftFilter, payload); err != nil {
			t.Fatal(err)
		}
		typ, res, _, err := ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("range %v: no reply: %v", vr, err)
		}
		return typ, res
	}
	good := core.ValueRange{Lo: 0.5, Hi: 1.0}
	if typ, res := send(good); typ != ftFilterRes {
		t.Fatalf("warm-up request got frame 0x%02x (%s)", typ, res)
	}
	for _, bad := range []core.ValueRange{{Lo: -0.5, Hi: -0.25}, {Lo: 0.2, Hi: 1.5}} {
		if typ, res := send(bad); typ != ftError {
			t.Fatalf("range %v: reply frame 0x%02x (%s), want an error frame", bad, typ, res)
		}
		typ, res := send(good)
		if typ != ftFilterRes {
			t.Fatalf("after range %v: well-formed request got frame 0x%02x (%s)", bad, typ, res)
		}
		var fr filterRes
		if err := json.Unmarshal(res, &fr); err != nil || len(fr.Keep) != len(ids) || fr.Stats.IndexHits != len(ids) {
			t.Fatalf("after range %v: filter reply %s (err %v), want %d indexed decisions", bad, res, err, len(ids))
		}
	}
}
