package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/dff"
	"cwcflow/internal/serve"
	"cwcflow/internal/sim"
	"cwcflow/internal/stats"
	"cwcflow/internal/store"
	"cwcflow/internal/window"
)

// span is one traced interval around a call into a layer. Times are
// nanoseconds since the trace began; Parent indexes the span that caused
// this one (-1 for the root); every span of a replay shares Job.
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory; writeTrace saves them when the run ends.
// A nil recorder records nothing, which is the untraced replay the tracing
// overhead is measured against.
type recorder struct {
	job   string
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Job: r.job, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

// selfTimes returns each span's duration minus the part its child spans
// cover. Children of one parent never overlap here: the replay is
// single-threaded.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerSelfTimes sums self time by layer, the part of a span name before
// the dot. The root span's self time — loop overhead and anything no span
// covers — is the layer "residual".
func layerSelfTimes(spans []span) map[string]int64 {
	byLayer := map[string]int64{}
	for i, self := range selfTimes(spans) {
		layer, _, _ := strings.Cut(spans[i].Name, ".")
		if spans[i].Parent < 0 {
			layer = "residual"
		}
		byLayer[layer] += self
	}
	return byLayer
}

// writeTrace saves a replay's spans under dir, which the fleet's set-up
// has created.
func writeTrace(dir, workload string, rec *recorder) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Job      string `json:"job"`
		Spans    []span `json:"spans"`
	}{workload, rec.job, rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o666)
}

// replayResult is one in-process run of a job through the layers.
type replayResult struct {
	wall      time.Duration
	canon     string // window digest, comparable with the served job's
	reactions uint64
	samples   int64
}

// replayEvent mirrors the server's NDJSON window event, so publish.encode
// costs what the stream handler's encoder costs.
type replayEvent struct {
	Type   string           `json:"type"`
	Window *core.WindowStat `json:"window,omitempty"`
	Status *serve.Status    `json:"status,omitempty"`
}

// checkpointSamples is cwc-serve's default -checkpoint-samples cadence.
const checkpointSamples = 16

// configFor turns a job spec into the pipeline configuration the server
// derives from it on submission.
func configFor(spec serve.JobSpec) (core.Config, []int, error) {
	factory, err := core.FactoryFor(core.ModelRef{Name: spec.Model, Omega: spec.Omega})
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg, err := core.Config{
		Factory: factory, Trajectories: spec.Trajectories, End: spec.End, Quantum: spec.Quantum,
		Period: spec.Period, WindowSize: spec.WindowSize, WindowStep: spec.WindowStep,
		Species: spec.Species, KMeansK: spec.KMeansK, PeriodHalfWin: spec.PeriodHalfWin, BaseSeed: spec.Seed,
	}.Normalized()
	if err != nil {
		return cfg, nil, err
	}
	species, err := core.ResolveSpecies(cfg)
	return cfg, species, err
}

// replay runs one job single-threaded, composing the layers the way the
// server does — trajectory quanta, (for a sharded shape) the dff wire
// codec on remoteShare of the trajectories, alignment and windowing,
// analysis, (for a durable shape) the journal, and stream encoding — with a
// span around each call. The spans come from the benchmark's own files:
// spans inside the server are a later change.
func replay(w workload, spec serve.JobSpec, remoteShare float64, dataDir string, rec *recorder) (res replayResult, err error) {
	cfg, species, err := configFor(spec)
	if err != nil {
		return res, err
	}
	stream, err := window.NewStream(cfg.Trajectories, cfg.WindowSize, cfg.WindowStep)
	if err != nil {
		return res, err
	}
	var journal *store.Store
	if w.durable {
		if journal, err = store.Open(dataDir, store.Options{}); err != nil {
			return res, err
		}
		defer journal.Close()
	}
	var wire bytes.Buffer
	wireOut, wireIn := dff.NewWriter[core.ResultMsg](&wire), dff.NewReader[core.ResultMsg](&wire)
	remoteTrajs := 0
	if w.remote {
		remoteTrajs = int(remoteShare*float64(cfg.Trajectories) + 0.5)
	}

	const jobID = "replay"
	endStatus := serve.Status{ID: jobID, State: serve.StateDone, Spec: spec}
	lastCkpt := make([]int, cfg.Trajectories) // next-sample index at each trajectory's last checkpoint
	for i := range lastCkpt {
		lastCkpt[i] = -checkpointSamples
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	eng := stats.NewEngine()
	var ws core.WindowStat
	seq := 0

	start := time.Now()
	if rec != nil {
		rec.t0 = start
	}
	root := rec.begin("job", -1)
	align := -1 // the window.align span whose Push calls emit
	emit := func(win window.Window) error {
		id := rec.begin("stats.analyse", align)
		err := core.AnalyseWindowInto(&ws, eng, win, species, cfg)
		rec.end(id)
		if err != nil {
			return err
		}
		if journal != nil {
			id = rec.begin("store.append", align)
			err = journal.AppendWindow(jobID, seq, &ws)
			rec.end(id)
			if err != nil {
				return err
			}
		}
		seq++
		id = rec.begin("publish.encode", align)
		err = enc.Encode(replayEvent{Type: "window", Window: &ws})
		rec.end(id)
		return err
	}

	if journal != nil {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return res, err
		}
		id := rec.begin("store.sync", root)
		err = journal.AppendSubmit(jobID, start, specJSON, serve.DefaultTenant)
		rec.end(id)
		if err != nil {
			return res, err
		}
	}
	id := rec.begin("sim.build", root)
	tasks := make([]*sim.Task, cfg.Trajectories)
	for i := range tasks {
		if tasks[i], err = core.NewTrajectoryTask(cfg, i); err != nil {
			return res, err
		}
	}
	rec.end(id)

	// Round-robin, one quantum per trajectory per turn: the order the
	// pool's feedback farm converges to, and the one that keeps the
	// aligner's backlog at a single cut.
	for live := len(tasks); live > 0; {
		live = 0
		for _, task := range tasks {
			if task.Done() {
				continue
			}
			batch := sim.GetBatch()
			id := rec.begin("sim.quantum", root)
			err := task.RunQuantumBatch(batch)
			rec.end(id)
			if err != nil {
				return res, err
			}
			if journal != nil && task.NextIndex()-lastCkpt[task.Traj] >= checkpointSamples {
				// The server journals an engine snapshot on a trajectory's
				// first quantum and every checkpointSamples samples after.
				lastCkpt[task.Traj] = task.NextIndex()
				id = rec.begin("store.checkpoint", root)
				data, ok, err := task.Snapshot()
				if err == nil && ok {
					err = journal.AppendCheckpoint(jobID, task.Traj, task.NextIndex(), data)
				}
				rec.end(id)
				if err != nil {
					return res, err
				}
			}
			samples := batch.Samples
			if task.Traj < remoteTrajs {
				id = rec.begin("dff.encode", root)
				err = wireOut.Send(core.ResultMsg{Traj: task.Traj, Samples: samples, TaskDone: task.Done(), Steps: task.Steps()})
				rec.end(id)
				if err != nil {
					return res, err
				}
				id = rec.begin("dff.decode", root)
				msg, _, err := wireIn.Recv()
				rec.end(id)
				if err != nil {
					return res, err
				}
				samples = msg.Samples
			}
			res.samples += int64(len(samples))
			align = rec.begin("window.align", root)
			for _, s := range samples {
				if err := stream.Push(s, emit); err != nil {
					return res, err
				}
			}
			rec.end(align)
			batch.Release()
			if task.Done() {
				res.reactions += task.Steps()
			} else {
				live++
			}
		}
	}
	align = rec.begin("window.align", root)
	err = stream.Close(emit)
	rec.end(align)
	if err != nil {
		return res, err
	}
	if journal != nil {
		statusJSON, err := json.Marshal(endStatus)
		if err != nil {
			return res, err
		}
		id := rec.begin("store.sync", root)
		err = journal.AppendTerminal(jobID, string(serve.StateDone), "", statusJSON)
		rec.end(id)
		if err != nil {
			return res, err
		}
	}
	id = rec.begin("publish.encode", root)
	err = enc.Encode(replayEvent{Type: "end", Status: &endStatus})
	rec.end(id)
	if err != nil {
		return res, err
	}
	rec.end(root)
	res.wall = time.Since(start)

	// Off the clock: digest the encoded stream with the client's own reader.
	sr, err := consumeStream(&out, true)
	if err != nil {
		return res, err
	}
	if sr.windows != seq {
		return res, fmt.Errorf("replay encoded %d windows, read back %d", seq, sr.windows)
	}
	res.canon = sr.canon
	return res, nil
}
