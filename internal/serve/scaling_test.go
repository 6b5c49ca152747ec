package serve_test

import (
	"fmt"
	"testing"
	"time"

	"cwcflow/internal/serve"
)

// BenchmarkPoolScaling runs the sim-heavy job shape (neurospora, 64
// trajectories, tumbling windows, no k-means) through a real server at
// pool widths 1 and 2: Submit's feeder builds the trajectories back to back
// and the pool dispatches them first-in first-out, so on two workers
// neighbouring trajectories run at the same moment. It reports samples/s
// and, on the second width, efficiency = rate(2) / (2 × rate(1)) — how much
// of the second core the farm turns into samples. Reported only: a ratio on
// a small shared box is too noisy to gate.
func BenchmarkPoolScaling(b *testing.B) {
	var rate1 float64
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc, err := serve.New(serve.Options{Workers: workers, StatEngines: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			samples := int64(0)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				job, err := svc.Submit(serve.JobSpec{Model: "neurospora", Omega: 100, Trajectories: 64,
					End: 48, Period: 0.5, WindowSize: 16, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				<-job.Done()
				st := job.Status()
				if st.State != serve.StateDone {
					b.Fatalf("job ended %s (%s)", st.State, st.Error)
				}
				samples += st.Progress.Samples
			}
			rate := float64(samples) / time.Since(start).Seconds()
			b.ReportMetric(rate, "samples/s")
			switch {
			case workers == 1:
				rate1 = rate
			case rate1 > 0:
				b.ReportMetric(rate/(float64(workers)*rate1), "efficiency")
			}
		})
	}
}
