package main

import (
	"fmt"
	"math/rand"
	"time"

	"mpcdist"
)

// edit-far: unrelated random texts, one library call at a time. Their
// distance exceeds what the small-distance regime accepts, so every job
// climbs the whole guess ladder and ends in the large regime's graph
// phase. Below n = 240 some random pairs are close enough to stop early.
const (
	farN     = 240
	farSigma = 26
	farPairs = 16
	farX     = 0.25
	farEps   = 0.5
)

type editFar struct {
	pairs []editPair
	warm  editPair // a near pair: a short small-regime warm-up job
}

func newEditFar(seed int64) *editFar {
	rng := rand.New(rand.NewSource(seed))
	w := &editFar{}
	for i := 0; i < farPairs; i++ {
		w.pairs = append(w.pairs, newEditPair(randText(rng, farN, farSigma), randText(rng, farN, farSigma)))
	}
	a := randText(rng, farN, farSigma)
	w.warm = newEditPair(a, plantEdits(rng, a, farN/2, farSigma))
	return w
}

func (w *editFar) shape() (int, int) { return 1, 0 }
func (w *editFar) modelJobs() int    { return 2 }

func (w *editFar) setUp(tr *tracer) (system, error) {
	s := &farSystem{w: w, tr: tr}
	if o := s.run(w.warm, -1); o.err != nil {
		return nil, fmt.Errorf("edit-far warm-up: %w", o.err)
	}
	return s, nil
}

type farSystem struct {
	w  *editFar
	tr *tracer
}

func (s *farSystem) job(_, id int, _ bool) outcome {
	o := s.run(s.w.pairs[id%len(s.w.pairs)], int64(id))
	o.id, o.fresh = id, true
	return o
}

func (s *farSystem) run(pr editPair, seed int64) outcome {
	p := mpcdist.MPCParams{X: farX, Eps: farEps, Seed: seed}
	if s.tr != nil {
		p.Observer = s.tr
	}
	start := time.Now()
	res, err := mpcdist.EditDistanceMPC(pr.a, pr.b, p)
	o := outcome{wall: time.Since(start), value: res.Value, counts: countsOf(res), straggler: res.Report.MaxStraggler}
	if s.tr != nil {
		jt := s.tr.take()
		o.tr, o.split = &jt, splitJob(o.wall, jt.rounds, false)
	}
	if err == nil {
		err = checkAnswer(res.Value, pr.exact, factorFor(res.Regime, farEps))
	}
	o.err = err
	return o
}

func (s *farSystem) close() error { return nil }
