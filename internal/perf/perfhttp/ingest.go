// Package perfhttp holds the end-to-end ingest benchmark bodies: live
// chat entering through the real HTTP handler — mux routing, query
// parsing, streaming JSON decode, engine mailbox, response encode — the
// full per-request tax a producer pays per POST /api/live/chat. This is
// where batching matters most: at batch size 1 every message pays the
// whole request overhead; at batch 256 it is amortized 256-fold, leaving
// only the decoder's and detector's true per-message work. The batched-
// ingest speedup gate (internal/perf/gates_test.go) runs these bodies.
package perfhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/perf/perfengine"
	"lightor/internal/platform"
)

// EncodeBatches pre-encodes the message stream into JSON array bodies of
// `batch` messages each — the payloads a live producer would POST.
func EncodeBatches(msgs []chat.Message, batch int) ([][]byte, error) {
	var bodies [][]byte
	for i := 0; i < len(msgs); i += batch {
		end := i + batch
		if end > len(msgs) {
			end = len(msgs)
		}
		body, err := json.Marshal(msgs[i:end])
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// LiveChatBurst streams the full simulated broadcast into `channels`
// concurrent channels through POST /api/live/chat, one request per
// `batch`-sized body, then closes each session through the API (flushing
// remaining windows, like the engine-level benchmark's Flush). Reports
// end-to-end msgs/sec.
func LiveChatBurst(init *core.Initializer, msgs []chat.Message, channels, batch int, sink *perfengine.ErrSink) func(*testing.B) {
	return func(b *testing.B) {
		fail := func(err error) {
			if sink != nil {
				sink.Set(err)
			}
			b.Error(err)
		}
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
		if err != nil {
			fail(err)
			return
		}
		eng, err := engine.New(init, ext, engine.Config{Warmup: -1})
		if err != nil {
			fail(err)
			return
		}
		defer eng.Close(context.Background())
		// DisableAdmission: this body prices the wire path itself — it
		// deliberately queues the whole log ahead of the asynchronous
		// drain, which is exactly what the backlog budget exists to shed.
		handler := (&platform.Service{Store: platform.NewStore(), Engine: eng, DisableAdmission: true}).Handler()
		bodies, err := EncodeBatches(msgs, batch)
		if err != nil {
			fail(err)
			return
		}

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < channels; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					id := fmt.Sprintf("perf-i%d-c%d", i, c)
					ingestURL := url.URL{Path: "/api/live/chat", RawQuery: "channel=" + id}
					for _, body := range bodies {
						req := &http.Request{
							Method: http.MethodPost,
							URL:    &ingestURL,
							Header: http.Header{},
							Body:   io.NopCloser(bytes.NewReader(body)),
							Host:   "bench",
						}
						rec := httptest.NewRecorder()
						handler.ServeHTTP(rec, req)
						if rec.Code != http.StatusAccepted {
							fail(fmt.Errorf("live chat POST: %d %s", rec.Code, rec.Body.String()))
							return
						}
					}
					closeURL := url.URL{Path: "/api/live/session", RawQuery: "channel=" + id}
					req := &http.Request{
						Method: http.MethodDelete,
						URL:    &closeURL,
						Header: http.Header{},
						Body:   http.NoBody,
						Host:   "bench",
					}
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						fail(fmt.Errorf("live session DELETE: %d %s", rec.Code, rec.Body.String()))
					}
				}(c)
			}
			wg.Wait()
		}
		b.StopTimer()
		total := float64(b.N) * float64(channels) * float64(len(msgs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "msgs/sec")
	}
}
