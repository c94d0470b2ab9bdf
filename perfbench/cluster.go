package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mpcdist/internal/checkpoint"
	"mpcdist/internal/core"
	"mpcdist/internal/dist"
)

// edit-near-cluster: near-duplicate DNA-like pairs through a session with
// one worker process over loopback TCP, every round checkpointed, and
// every nearRepeat-th job resubmitting an earlier one, which the session
// fast-forwards from the store. The store flushes every 4th round. On a
// 2-vCPU VM, flushing every round brought 2-4x the CPU steal and a p90
// spread of 0.16-0.37 (IQR/median over 10 seeds); every 4th round gave
// 0.11-0.17, and every job still encodes, writes and reads the store.
//
// Each of the two parties runs with half the CPUs as GOMAXPROCS, so the
// session runs no more threads at once than the machine has cores. With
// both at the full count, the parties preempted each other and the job
// rate dropped by a sixth.
//
// The texts have n = 2048, not 1024. A round waits for both parties, so
// when the host runs something else on one CPU for a while, the job
// stalls, and these stalls weigh less the more work a round holds. In
// runs alternated on a 2-vCPU VM while the host took up to 28% of its CPU
// time, n = 2048 halved the spread of every latency metric against
// n = 1024 (job_p90_ms: IQR/median 0.43 against 0.82 over 6 runs).
const (
	nearN      = 2048
	nearSigma  = 4
	nearEdits  = nearN / 40
	nearPairs  = 64
	nearRepeat = 4
	nearX      = 0.25
	nearEps    = 0.5
)

type nearCluster struct {
	pairs  []editPair
	warm   []editPair
	dir    string // parent of the checkpoint stores
	stores int    // stores opened so far; each set-up gets a fresh one
}

func newNearCluster(seed int64, dir string) *nearCluster {
	rng := rand.New(rand.NewSource(seed))
	w := &nearCluster{dir: dir}
	for i := 0; i < nearPairs+2; i++ {
		a := randText(rng, nearN, nearSigma)
		pr := newEditPair(a, plantEdits(rng, a, nearEdits, nearSigma))
		if i < nearPairs {
			w.pairs = append(w.pairs, pr)
		} else {
			w.warm = append(w.warm, pr)
		}
	}
	return w
}

func (w *nearCluster) shape() (int, int) { return 1, nearRepeat }
func (w *nearCluster) modelJobs() int    { return 8 }

func (w *nearCluster) setUp(tr *tracer) (system, error) {
	store, err := checkpoint.Open(filepath.Join(w.dir, fmt.Sprintf("store-%d", w.stores)))
	w.stores++
	if err != nil {
		return nil, err
	}
	procs := max(1, runtime.NumCPU()/2)
	s := &clusterSystem{w: w, tr: tr, first: map[int]outcome{}, procs: runtime.GOMAXPROCS(procs)}
	opts := dist.SessionOptions{
		Workers:           1,
		WorkerEnv:         []string{"GOMAXPROCS=" + strconv.Itoa(procs)},
		Checkpoint:        store,
		CheckpointEvery:   4,
		CheckpointResume:  true,
		OnCheckpointFlush: func(_ int, n int64) { s.ckptBytes.Add(n) },
	}
	if tr != nil {
		opts.Observer = tr
	}
	if s.sess, err = dist.NewSession(opts); err != nil {
		runtime.GOMAXPROCS(s.procs)
		return nil, err
	}
	for i, pr := range w.warm {
		if o := s.run(pr, int64(-1-i)); o.err != nil {
			s.close()
			return nil, fmt.Errorf("edit-near-cluster warm-up: %w", o.err)
		}
	}
	return s, nil
}

type clusterSystem struct {
	w         *nearCluster
	tr        *tracer
	sess      *dist.Session
	ckptBytes atomic.Int64
	first     map[int]outcome // first answer of each fresh job
	procs     int             // GOMAXPROCS before set-up, restored by close
}

func (s *clusterSystem) job(_, id int, fresh bool) outcome {
	o := s.run(s.w.pairs[id%len(s.w.pairs)], int64(id))
	o.id, o.fresh = id, fresh
	if o.err != nil {
		return o
	}
	if fresh {
		s.first[id] = o
	} else if f, ok := s.first[id]; ok && (o.value != f.value || o.counts != f.counts) {
		o.err = fmt.Errorf("resubmitted job %d answered %d %+v, first run %d %+v", id, o.value, o.counts, f.value, f.counts)
	}
	return o
}

func (s *clusterSystem) run(pr editPair, seed int64) outcome {
	j := dist.FromParams(dist.AlgoEditMPC, core.Params{X: nearX, Eps: nearEps, Seed: seed})
	j.S, j.T = pr.a, pr.b
	st0, ck0 := s.sess.Stats(), s.ckptBytes.Load()
	start := time.Now()
	res, err := s.sess.Run(j)
	o := outcome{wall: time.Since(start), value: res.Value, counts: countsOf(res), straggler: res.Report.MaxStraggler}
	st1 := s.sess.Stats()
	o.wireBytes = st1.BytesIn + st1.BytesOut - st0.BytesIn - st0.BytesOut
	o.frames = st1.Frames - st0.Frames
	o.reconnects = int64(st1.Reconnects - st0.Reconnects)
	o.corrupt = st1.CorruptFrames - st0.CorruptFrames
	o.ckptBytes = s.ckptBytes.Load() - ck0
	if s.tr != nil {
		jt := s.tr.take()
		o.tr, o.split = &jt, splitJob(o.wall, jt.rounds, true)
	}
	if err == nil {
		err = checkAnswer(res.Value, pr.exact, factorFor(res.Regime, nearEps))
	}
	o.err = err
	return o
}

func (s *clusterSystem) close() error {
	defer runtime.GOMAXPROCS(s.procs)
	return s.sess.Close()
}
