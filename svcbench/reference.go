package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"cwcflow/internal/serve"
)

// reference runs one job in-process on a one-worker, one-engine server with
// the cache off: the single-threaded baseline. It supplies the digest the
// served and replayed streams must equal, and baseline_samples_per_s.
func reference(spec serve.JobSpec) (canon string, samplesPerS float64, err error) {
	svc, err := serve.New(serve.Options{Workers: 1, StatEngines: 1, NoCache: true})
	if err != nil {
		return "", 0, err
	}
	defer svc.Close()
	start := time.Now()
	job, err := svc.Submit(spec)
	if err != nil {
		return "", 0, err
	}
	<-job.Done()
	elapsed := time.Since(start)
	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/"+job.ID()+"/stream", nil))
	res, err := consumeStream(rr.Body, true)
	if err != nil {
		return "", 0, fmt.Errorf("reference job: %w", err)
	}
	if res.end.State != serve.StateDone {
		return "", 0, fmt.Errorf("reference job ended %s: %s", res.end.State, res.end.Error)
	}
	return res.canon, float64(res.end.Progress.Samples) / elapsed.Seconds(), nil
}
