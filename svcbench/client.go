package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cwcflow/internal/core"
	"cwcflow/internal/serve"
)

// streamLine is one NDJSON event of GET /jobs/{id}/stream. The window stays
// raw so the generator, which shares the two cores with the server, hashes
// it without decoding unless a digest against the reference is wanted.
type streamLine struct {
	Type   string          `json:"type"`
	Window json.RawMessage `json:"window"`
	Status *serve.Status   `json:"status"`
	Lost   int             `json:"lost"`
}

// streamResult is what one consumed job stream amounts to.
type streamResult struct {
	windows     int
	windowBytes int64
	firstWindow time.Time // zero if the stream carried no window
	// raw is the SHA-256 over the window objects as the server wrote them:
	// cheap, and equal for a cache hit and the job it repeats.
	raw [sha256.Size]byte
	// canon is the SHA-256 over every window decoded into core.WindowStat
	// and marshalled again (hex; empty unless asked for): independent of
	// who produced the bytes, so the served stream, the single-threaded
	// reference and the traced replay are comparable.
	canon string
	end   *serve.Status
}

// consumeStream reads a job stream to its end event, counting and hashing
// windows. Any gap, lost window or missing end event is an error.
func consumeStream(r io.Reader, wantCanon bool) (streamResult, error) {
	var res streamResult
	raw, canon := sha256.New(), sha256.New()
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev streamLine
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return res, fmt.Errorf("undecodable stream line: %w", jerr)
			}
			switch ev.Type {
			case "window":
				if res.windows == 0 {
					res.firstWindow = time.Now()
				}
				res.windows++
				res.windowBytes += int64(len(ev.Window))
				raw.Write(ev.Window)
				if wantCanon {
					var ws core.WindowStat
					if jerr := json.Unmarshal(ev.Window, &ws); jerr != nil {
						return res, fmt.Errorf("undecodable window: %w", jerr)
					}
					again, jerr := json.Marshal(&ws)
					if jerr != nil {
						return res, jerr
					}
					canon.Write(again)
					canon.Write([]byte{'\n'})
				}
			case "gap":
				return res, fmt.Errorf("stream gap: %d windows evicted before replay", ev.Lost)
			case "end":
				if ev.Lost != 0 {
					return res, fmt.Errorf("stream lost %d windows", ev.Lost)
				}
				if ev.Status == nil {
					return res, errors.New("end event without status")
				}
				res.end = ev.Status
				raw.Sum(res.raw[:0])
				if wantCanon {
					res.canon = hex.EncodeToString(canon.Sum(nil))
				}
				return res, nil
			}
		}
		if err != nil {
			if err == io.EOF {
				return res, errors.New("stream ended without an end event")
			}
			return res, err
		}
	}
}

// jobRecord is one operation of the closed loop.
type jobRecord struct {
	idx         int
	err         error // non-nil: a failed operation, which has no latency
	id          string
	cacheHit    bool
	firstWindow time.Duration // POST sent → first window event received
	done        time.Duration // POST sent → end event received
	finished    time.Time
	stream      streamResult
}

// runJob is one turn of a client: POST the spec, follow the stream to its
// end event, and check the job completed with every window delivered.
func runJob(ctx context.Context, hc *http.Client, base string, spec serve.JobSpec, wantCanon bool) (rec jobRecord) {
	fail := func(format string, args ...any) jobRecord {
		rec.err = fmt.Errorf(format, args...)
		return rec
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail("encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return fail("%w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return fail("POST /jobs: %w", err)
	}
	var st serve.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fail("POST /jobs: %s", resp.Status)
	}
	if derr != nil {
		return fail("POST /jobs: decoding status: %w", derr)
	}
	rec.id, rec.cacheHit = st.ID, st.CacheHit

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		return fail("%w", err)
	}
	resp, err = hc.Do(req)
	if err != nil {
		return fail("GET stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail("GET stream: %s", resp.Status)
	}
	rec.stream, err = consumeStream(resp.Body, wantCanon)
	rec.finished = time.Now()
	if err != nil {
		return fail("job %s: %w", st.ID, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	end := rec.stream.end
	switch {
	case end.State != serve.StateDone:
		return fail("job %s ended %s: %s", st.ID, end.State, end.Error)
	case rec.stream.windows == 0 || rec.stream.windows != end.Progress.TotalWindows:
		return fail("job %s delivered %d of %d windows", st.ID, rec.stream.windows, end.Progress.TotalWindows)
	}
	rec.firstWindow = rec.stream.firstWindow.Sub(sent)
	rec.done = rec.finished.Sub(sent)
	return rec
}

// newClient returns an HTTP client that owns exactly one keep-alive
// connection, so the loop's width is also its connection count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
