package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"mpcdist"
	"mpcdist/internal/server"
)

// serve-rank: two closed-loop HTTP clients asking an in-process server
// for the Ulam distance of two noisy rankings; every rankRepeat-th query
// of a client repeats one of its earlier queries, which the server
// answers from its cache.
const (
	rankN       = 512
	rankMoves   = rankN / 10
	rankPairs   = 32
	rankRepeat  = 5
	rankClients = 2
	rankX       = 0.3
	rankEps     = 0.5 // the server's default
)

type serveRank struct {
	pairs []rankPair
	warm  []rankPair
}

// rankPair is one Ulam input with its exact answer.
type rankPair struct {
	a, b  []int
	exact int
}

func newServeRank(seed int64) *serveRank {
	rng := rand.New(rand.NewSource(seed))
	w := &serveRank{}
	for i := 0; i < rankPairs+rankClients; i++ {
		a := rng.Perm(rankN)
		b := moveItems(rng, a, rankMoves)
		pr := rankPair{a: a, b: b, exact: editDistance(a, b)}
		if i < rankPairs {
			w.pairs = append(w.pairs, pr)
		} else {
			w.warm = append(w.warm, pr)
		}
	}
	return w
}

func (w *serveRank) shape() (int, int) { return rankClients, rankRepeat }
func (w *serveRank) modelJobs() int    { return 8 }

// setUp starts the server on a loopback listener. The server takes no
// observer; the traced run splits its compute time by replaying the
// queries through the library (see replay).
func (w *serveRank) setUp(*tracer) (system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSystem{
		w:      w,
		url:    "http://" + ln.Addr().String() + "/v1/distance",
		hs:     &http.Server{Handler: server.New(server.Config{}).Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rankClients}},
		first:  make([]map[int]int, rankClients),
	}
	for c := range s.first {
		s.first[c] = map[int]int{}
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i, pr := range w.warm {
		if o := s.query(pr, int64(-1-i)); o.err != nil {
			s.close()
			return nil, fmt.Errorf("serve-rank warm-up: %w", o.err)
		}
	}
	return s, nil
}

type serveSystem struct {
	w      *serveRank
	url    string
	hs     *http.Server
	served chan error // Serve's return value
	client *http.Client
	first  []map[int]int // per client: first answer of each fresh query
}

func (s *serveSystem) job(c, id int, fresh bool) outcome {
	o := s.query(s.w.pairs[id%len(s.w.pairs)], int64(id))
	o.id, o.fresh = id, fresh
	if o.err != nil {
		return o
	}
	if fresh {
		s.first[c][id] = o.value
	} else if v, ok := s.first[c][id]; ok && o.value != v {
		o.err = fmt.Errorf("repeated query %d answered %d, first %d", id, o.value, v)
	}
	return o
}

func (s *serveSystem) query(pr rankPair, seed int64) outcome {
	body, err := json.Marshal(server.Query{Algo: "ulam-mpc", ASeq: pr.a, BSeq: pr.b, X: rankX, Seed: seed})
	if err != nil {
		return outcome{err: err}
	}
	start := time.Now()
	a, err := s.post(body)
	o := outcome{wall: time.Since(start), err: err}
	if err != nil {
		return o
	}
	o.value, o.cached = a.Distance, a.Cached
	o.compute = time.Duration(a.ElapsedMs * float64(time.Millisecond))
	o.counts = modelCounts{guesses: 1, machineRuns: -1}
	if r := a.Report; r != nil {
		o.counts.rounds, o.counts.commWords = r.Rounds, r.CommWords
		o.counts.ops, o.counts.criticalOps = r.TotalOps, r.CriticalOps
	}
	o.err = checkAnswer(a.Distance, pr.exact, factorFor("", rankEps))
	return o
}

func (s *serveSystem) post(body []byte) (server.Answer, error) {
	var a server.Answer
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return a, json.Unmarshal(data, &a)
}

func (s *serveSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// replay runs the fresh queries answered over HTTP through the library
// call the server makes, in id order, alternating an untraced and a
// traced call per query, until d has passed and at least modelJobs ran.
// Each replayed answer must equal the server's: value and model counts.
func (w *serveRank) replay(served []outcome, tr *tracer, d time.Duration) (plain, traced []outcome) {
	byID := map[int]outcome{}
	for _, o := range served {
		if o.fresh && o.err == nil {
			byID[o.id] = o
		}
	}
	start := time.Now()
	for id := 0; len(byID) > 0 && (id < w.modelJobs() || time.Since(start) < d); id++ {
		h, ok := byID[id]
		if !ok {
			continue
		}
		delete(byID, id)
		pr := w.pairs[id%len(w.pairs)]
		for _, t := range []*tracer{nil, tr} {
			p := mpcdist.MPCParams{X: rankX, Seed: int64(id)}
			if t != nil {
				p.Observer = t
			}
			t0 := time.Now()
			res, err := mpcdist.UlamDistanceMPC(pr.a, pr.b, p)
			o := outcome{id: id, fresh: true, wall: time.Since(t0), value: res.Value, counts: countsOf(res), straggler: res.Report.MaxStraggler}
			if t != nil {
				jt := t.take()
				o.tr, o.split = &jt, splitJob(o.wall, jt.rounds, false)
			}
			switch {
			case err != nil:
				o.err = err
			case o.value != h.value:
				o.err = fmt.Errorf("query %d: library answered %d, server %d", id, o.value, h.value)
			case o.counts.rounds != h.counts.rounds || o.counts.ops != h.counts.ops ||
				o.counts.commWords != h.counts.commWords || o.counts.criticalOps != h.counts.criticalOps:
				o.err = fmt.Errorf("query %d: library counts %+v, server %+v", id, o.counts, h.counts)
			default:
				o.err = checkAnswer(o.value, pr.exact, factorFor("", rankEps))
			}
			if t == nil {
				plain = append(plain, o)
			} else {
				traced = append(traced, o)
			}
		}
	}
	return plain, traced
}
