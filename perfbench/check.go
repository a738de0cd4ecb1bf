package main

import (
	"fmt"

	"msrp"
	"msrp/internal/rp"
	"msrp/internal/server"
)

// tally counts items by outcome. Every attempted item is either
// answered correctly, answered wrongly, or failed (refused, route
// error, transport error, path error).
type tally struct {
	attempted, failed, wrong int64
	// firstWrong describes the first wrong answer, for the log.
	firstWrong string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstWrong == "" {
		t.firstWrong = o.firstWrong
	}
}

func (t *tally) noteWrong(format string, args ...any) {
	t.wrong++
	if t.firstWrong == "" {
		t.firstWrong = fmt.Sprintf(format, args...)
	}
}

// checkTables compares n full answer tables against the reference,
// entry by entry; lengths(i, v) is table i's row for target v. Each
// (source, target, path edge) entry is one attempted item.
func checkTables(inst *instance, n int, lengths func(i, v int) []int32) tally {
	var t tally
	if n != len(inst.ref) {
		t.attempted++
		t.noteWrong("got %d result tables, want %d", n, len(inst.ref))
		return t
	}
	for i, ref := range inst.ref {
		for v, want := range ref.Len {
			got := lengths(i, v)
			t.attempted += int64(len(want))
			if len(got) != len(want) {
				t.noteWrong("source %d target %d: %d path edges, want %d", ref.Source, v, len(got), len(want))
				continue
			}
			for j := range want {
				if got[j] != want[j] {
					t.noteWrong("source %d target %d edge %d: length %d, want %d", ref.Source, v, j, got[j], want[j])
				}
			}
		}
	}
	return t
}

// checkResults checks public MultiSource results.
func checkResults(inst *instance, res []*msrp.Result) tally {
	return checkTables(inst, len(res), func(i, v int) []int32 { return res[i].Lengths(v) })
}

// checkItem judges one served answer against the reference: a failed
// item (route error, refusal, path error) counts as failed; a wrong
// length, a NoPath mismatch, or a requested path that is missing or
// fails rp.CheckReplacementPath counts as wrong.
func checkItem(inst *instance, q server.QueryItem, a server.AnswerItem) tally {
	t := tally{attempted: 1}
	if a.RouteError != "" || a.Error != "" {
		t.failed++
		return t
	}
	ref := inst.refOf[q.Source]
	ig := inst.g.Internal()
	e, ok := ig.EdgeID(q.U, q.V)
	if ref == nil || !ok {
		t.noteWrong("query %+v is not a valid query", q)
		return t
	}
	child := int32(q.V)
	if ref.Tree.Parent[child] != int32(q.U) {
		child = int32(q.U)
	}
	want := ref.Len[q.Target][ref.Tree.Dist[child]-1]
	if want == rp.Inf {
		if !a.NoPath {
			t.noteWrong("query %+v: length %d, want no path", q, a.Length)
		}
		return t
	}
	if a.NoPath || a.Length != want {
		t.noteWrong("query %+v: length %d (noPath=%v), want %d", q, a.Length, a.NoPath, want)
		return t
	}
	if !q.Paths {
		return t
	}
	if a.PathError != "" {
		t.failed++
		return t
	}
	if err := rp.CheckReplacementPath(ig, a.Path, int32(q.Source), int32(q.Target), e, want); err != nil {
		t.noteWrong("query %+v: invalid path: %v", q, err)
	}
	return t
}

// checkBatch judges a whole served batch. A batch without one answer
// per item (refused, transport error) fails every item.
func checkBatch(inst *instance, qs []server.QueryItem, resp *server.QueryResponse) tally {
	if resp == nil || len(resp.Answers) != len(qs) {
		return tally{attempted: int64(len(qs)), failed: int64(len(qs))}
	}
	var t tally
	for i, q := range qs {
		t.add(checkItem(inst, q, resp.Answers[i]))
	}
	return t
}
