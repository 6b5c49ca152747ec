package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cwcflow/internal/gpu"
	"cwcflow/internal/sim"
)

// goldenConfig is the spec of the full-window golden digests: sliding
// windows, k-means and period detection, so every field of a WindowStat
// and the Assembler's completed rows are covered.
func goldenConfig(t *testing.T, model string, omega float64) Config {
	t.Helper()
	factory, err := FactoryFor(ModelRef{Name: model, Omega: omega})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Factory: factory, Trajectories: 64, End: 12, Period: 0.5,
		WindowSize: 8, WindowStep: 2, KMeansK: 3, PeriodHalfWin: 2, BaseSeed: 42,
	}
}

// windowDigest is the sha256 of the JSON of every window a run displayed.
func windowDigest(t *testing.T, windows []WindowStat) string {
	t.Helper()
	b, err := json.Marshal(windows)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunGoldenWindowDigest pins every field of every window Run and
// RunGPU display — moments, medians, k-means, periods — to digests
// recorded independently of the current pipeline, at several farm widths.
// The CSV that cwc-sim prints holds only means, deviations and medians.
func TestRunGoldenWindowDigest(t *testing.T) {
	golden := []struct {
		model  string
		omega  float64
		digest string
	}{
		{"sir", 100, "9936e4f67e2ee47755806223b0f33c9346d4d06913adad07059d6e198f51b062"},
		{"neurospora", 20, "99a96c50cb44cd2c9451c38df3cd9418059c8058b8828d097e1ca0ad70e5ef2e"},
	}
	for _, g := range golden {
		for _, w := range []struct{ sim, stat int }{{1, 1}, {4, 4}, {2, 3}} {
			t.Run(fmt.Sprintf("%s/sim=%d/stat=%d", g.model, w.sim, w.stat), func(t *testing.T) {
				cfg := goldenConfig(t, g.model, g.omega)
				cfg.SimWorkers, cfg.StatEngines = w.sim, w.stat
				var windows []WindowStat
				if _, err := Run(t.Context(), cfg, func(ws WindowStat) error {
					windows = append(windows, ws)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got := windowDigest(t, windows); got != g.digest {
					t.Fatalf("digest %s, want %s", got, g.digest)
				}
			})
		}
		t.Run(g.model+"/gpu", func(t *testing.T) {
			dev, err := gpu.NewDevice(gpu.DeviceConfig{
				SMs: 2, CoresPerSM: 64, WarpSize: 32,
				LaunchOverhead: 1e-5, SecondsPerCost: 1e-8,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenConfig(t, g.model, g.omega)
			cfg.StatEngines = 2
			var windows []WindowStat
			if _, _, err := RunGPU(t.Context(), cfg, dev, func(ws WindowStat) error {
				windows = append(windows, ws)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := windowDigest(t, windows); got != g.digest {
				t.Fatalf("digest %s, want %s", got, g.digest)
			}
		})
	}
}

// TestRunClosesItsStatFarm ends a run from inside display, by an error and
// by cancelling its context, from the simulation stage's collector by a
// raw-sample tap error, and by finishing it, and checks that Run returns
// that error and leaves no goroutine of its stat farm, its simulation farm
// or its pipeline behind.
func TestRunClosesItsStatFarm(t *testing.T) {
	boom := errors.New("display boom")
	tapBoom := errors.New("raw sink boom")
	none := func(context.CancelFunc, int) error { return nil }
	cases := []struct {
		name string
		// display is called with the run's cancel and the index of the
		// window it is shown.
		display func(cancel context.CancelFunc, i int) error
		// raw, when non-nil, is the run's RawSink, called with the index of
		// the sample it is shown.
		raw  func(i int) error
		want error
	}{
		{"display-error", func(_ context.CancelFunc, i int) error {
			if i == 2 {
				return boom
			}
			return nil
		}, nil, boom},
		{"cancel", func(cancel context.CancelFunc, i int) error {
			if i == 2 {
				cancel()
			}
			return nil
		}, nil, context.Canceled},
		{"raw-sink-error", none, func(i int) error {
			if i == 100 {
				return tapBoom
			}
			return nil
		}, tapBoom},
		{"complete", none, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.StatEngines = 4
			cfg.WindowStep = 1 // many windows, so the run is mid-stream at window 2
			if tc.raw != nil {
				n := 0
				cfg.RawSink = func(sim.Sample) error {
					n++
					return tc.raw(n - 1)
				}
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			i := 0
			_, err := Run(ctx, cfg, func(WindowStat) error {
				err := tc.display(cancel, i)
				i++
				return err
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		})
	}
}
