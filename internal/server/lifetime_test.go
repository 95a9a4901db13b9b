package server

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/authindex"
	"repro/internal/core"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wire"
)

// rawConn is one client connection to a server speaking bare frames, so
// that every request goes through the server connection's one reused
// read buffer.
type rawConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, s *Server) *rawConn {
	t.Helper()
	cli, srv := net.Pipe()
	go s.ServeConn(srv)
	t.Cleanup(func() { cli.Close() })
	return &rawConn{c: cli, r: bufio.NewReader(cli)}
}

// read sends a read request and returns its decoded answers, or the
// error that failed it.
func (rc *rawConn) read(f wire.Frame) ([]query.Response, error) {
	if err := wire.WriteFrame(rc.c, f); err != nil {
		return nil, err
	}
	resp, err := wire.ReadFrame(rc.r)
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespResult {
		return nil, fmt.Errorf("answered %#x: %s", resp.Type, resp.Payload)
	}
	_, resps, err := query.DecodeResponses(resp.Payload)
	return resps, err
}

// oracle is what reads of the conjunctions plans must answer on et: the
// intersection of EvaluateSerial's positions, by plan joined with " and ".
// It runs before any request: EvaluateSerial's scans draw from the
// matcher pool the server's do, and must not reset what a request left
// in it.
func oracle(t *testing.T, et *ph.EncryptedTable, plans ...[]string) map[string][]int {
	t.Helper()
	out := map[string][]int{}
	for _, plan := range plans {
		var want []int
		for i, tok := range plan {
			res, err := core.EvaluateSerial(et, fixtureQuery(t, tok))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Positions
			} else {
				want = ph.IntersectPositions(want, res.Positions)
			}
		}
		out[strings.Join(plan, " and ")] = want
	}
	return out
}

// checkAnswer holds one answer to the oracle: its positions, and each
// tuple the table's tuple at that position.
func checkAnswer(t *testing.T, what string, et *ph.EncryptedTable, got *ph.Result, want []int) {
	t.Helper()
	if len(got.Positions) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Positions, want)) {
		t.Fatalf("%s: positions %v, EvaluateSerial's %v", what, got.Positions, want)
	}
	for i, p := range want {
		if !reflect.DeepEqual(got.Tuples[i], et.Tuples[p]) {
			t.Fatalf("%s: tuple %d is not the table's tuple %d", what, i, p)
		}
	}
}

// TestTokenViewsDieWithTheirRequest pins the one-copy rule for
// requests: a decoded token is a view of the server connection's read
// buffer (query.DecodeRequest), which the next frame on the connection
// overwrites, so nothing may keep a token past its request — not the
// matcher pool, not a scan another connection attaches to, not a
// verified or narrowed plan. Every request goes through one connection
// whose buffer is reused between frames, and every answer is held to
// EvaluateSerial:
//   - different tokens of one length, back to back, each a cold scan
//     whose token lies where the last one did;
//   - cold scans a second connection attaches to through scanshare,
//     each followed at once on both connections by other tokens of the
//     same length;
//   - verified conjunctions of a cold id and a parity, each followed by
//     one of other tokens: the id drives and the parity narrows its
//     survivors, or the cached parity drives and the id narrows.
//
// A pool or a memo that kept a view would see the next request's
// bytes in place of its own, and answer with another token's matches.
// The table is past the parallel threshold, so scans fork onto pooled
// clones too. Run with -race.
func TestTokenViewsDieWithTheirRequest(t *testing.T) {
	const n = 3 * 8192 / 2
	et := fixtureTable(n)
	tree := authindex.Build(et)
	store := storage.NewMemory()
	s := New(store, nil)
	if resp := s.dispatch(storeFrame("emp", et), nil); resp.Type != wire.RespOK {
		t.Fatalf("store: %s", resp.Payload)
	}
	const tries = 64
	var plans [][]string
	for i := range 16 {
		plans = append(plans, []string{id(i)})
	}
	for try := range tries {
		plans = append(plans, []string{id(100 + try)}, []string{id(2000 + try)}, []string{id(4000 + try)})
	}
	for i := range 8 {
		plans = append(plans, []string{id(8000 + 2*i), "even"}, []string{id(8001 + 2*i), "odd"})
	}
	want := oracle(t, et, plans...)
	a, b := dialRaw(t, s), dialRaw(t, s)
	// Every id token matches one tuple and is queried once, so each is a
	// cold scan, and one that ran with another token's key would miss.
	selectOn := func(t *testing.T, c *rawConn, tok string) error {
		resps, err := c.read(readFrame(t, "emp", 0, []string{tok}))
		if err != nil {
			return err
		}
		if got := resps[0].Result.Positions; !reflect.DeepEqual(got, want[tok]) {
			t.Errorf("select %s: positions %v, EvaluateSerial's %v", tok, got, want[tok])
		}
		return nil
	}

	t.Run("back to back", func(t *testing.T) {
		for i := range 16 {
			if err := selectOn(t, a, id(i)); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("attached scan", func(t *testing.T) {
		attached := store.ShareStats().Attached
		for try := 0; store.ShareStats().Attached < attached+3; try++ {
			if try == tries {
				t.Fatalf("%d scans of %d were attached to, want 3", store.ShareStats().Attached-attached, tries)
			}
			var wg sync.WaitGroup
			for c, then := range map[*rawConn]int{a: 2000 + try, b: 4000 + try} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// The shared scan, then at once another token where
					// this one lay.
					for _, tok := range []string{id(100 + try), id(then)} {
						if err := selectOn(t, c, tok); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
		}
	})

	t.Run("verified narrowed conjunction", func(t *testing.T) {
		for _, plan := range plans[16+3*tries:] {
			resps, err := a.read(readFrame(t, "emp", wire.ReadFlagVerified, plan))
			if err != nil {
				t.Fatal(err)
			}
			vr, what := resps[0].Verified, strings.Join(plan, " and ")
			checkAnswer(t, what, et, vr.Result, want[what])
			if err := authindex.VerifyAnswer(tree.CapRow(), vr.Leaves, vr.Result.Positions, vr.Result.Tuples, vr.Multiproof); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	})
}
