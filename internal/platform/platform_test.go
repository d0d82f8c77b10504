package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/perf"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// testEngine builds an engine-backed test fixture and drains it on
// cleanup.
func testEngine(t *testing.T, init *core.Initializer) *engine.Engine {
	t.Helper()
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(init, ext, engine.Config{Warmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Close(ctx); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return eng
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if err := s.PutVideo(VideoRecord{}); err == nil {
		t.Error("empty ID accepted")
	}
	log := chat.NewLog([]chat.Message{{Time: 1, Text: "hi"}})
	if err := s.PutVideo(VideoRecord{ID: "v1", Duration: 100, Chat: log}); err != nil {
		t.Fatal(err)
	}
	if !s.HasChat("v1") {
		t.Error("HasChat(v1) = false")
	}
	if s.HasChat("v2") {
		t.Error("HasChat(v2) = true")
	}
	rec, ok := s.Video("v1")
	if !ok || rec.Duration != 100 {
		t.Errorf("Video(v1) = %+v, %v", rec, ok)
	}
	if ids := s.VideoIDs(); len(ids) != 1 || ids[0] != "v1" {
		t.Errorf("VideoIDs = %v", ids)
	}
}

func TestStoreDeepCopySemantics(t *testing.T) {
	s := NewStore()
	dots := []core.RedDot{{Time: 50, Score: 0.9}}
	spans := []core.Interval{{Start: 45, End: 60}}
	if err := s.PutVideo(VideoRecord{ID: "v1", Duration: 100, RedDots: dots, Boundaries: spans}); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's slices after Put must not reach the store.
	dots[0].Time = 999
	spans[0].Start = 999
	rec, _ := s.Video("v1")
	if rec.RedDots[0].Time != 50 || rec.Boundaries[0].Start != 45 {
		t.Errorf("PutVideo aliased caller slices: %+v", rec)
	}
	// Mutating a returned record must not reach the store either.
	rec.RedDots[0].Time = 777
	rec.Boundaries[0].End = 777
	again, _ := s.Video("v1")
	if again.RedDots[0].Time != 50 || again.Boundaries[0].End != 60 {
		t.Errorf("Video returned aliased storage: %+v", again)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// Hammer the sharded store from many goroutines; run with -race.
	s := NewStore()
	const videos = 64
	var wg sync.WaitGroup
	for i := 0; i < videos; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("v%02d", i)
			if err := s.PutVideo(VideoRecord{ID: id, Duration: 100}); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if err := s.SetRedDots(id, []core.RedDot{{Time: float64(j)}}); err != nil {
					t.Error(err)
				}
				if err := s.LogEvents(id, []play.Event{{User: "u", Seq: j, Type: play.EventPlay, Pos: float64(j)}}); err != nil {
					t.Error(err)
				}
				rec, ok := s.Video(id)
				if !ok || rec.ID != id {
					t.Errorf("Video(%s) = %+v, %v", id, rec, ok)
				}
				s.Events(id)
			}
		}(i)
	}
	wg.Wait()
	if got := len(s.VideoIDs()); got != videos {
		t.Errorf("VideoIDs = %d, want %d", got, videos)
	}
}

func TestStoreRedDotsAndEvents(t *testing.T) {
	s := NewStore()
	if err := s.SetRedDots("nope", nil); err == nil {
		t.Error("SetRedDots on unknown video accepted")
	}
	if err := s.LogEvents("nope", nil); err == nil {
		t.Error("LogEvents on unknown video accepted")
	}
	if err := s.PutVideo(VideoRecord{ID: "v1", Duration: 100}); err != nil {
		t.Fatal(err)
	}
	dots := []core.RedDot{{Time: 50, Score: 0.9}}
	if err := s.SetRedDots("v1", dots); err != nil {
		t.Fatal(err)
	}
	events := []play.Event{
		{User: "u", Seq: 0, Type: play.EventPlay, Pos: 48},
		{User: "u", Seq: 1, Type: play.EventStop, Pos: 70},
	}
	if err := s.LogEvents("v1", events); err != nil {
		t.Fatal(err)
	}
	plays := s.Plays("v1")
	if len(plays) != 1 || plays[0].Start != 48 {
		t.Errorf("Plays = %v", plays)
	}
	// Returned slices must be copies.
	got := s.Events("v1")
	got[0].Pos = 999
	if s.Events("v1")[0].Pos == 999 {
		t.Error("Events returned aliased storage")
	}
}

func TestSimTwitchAndCrawler(t *testing.T) {
	tw := NewSimTwitch()
	log := chat.NewLog([]chat.Message{
		{Time: 1, User: "a", Text: "hello"},
		{Time: 2, User: "b", Text: "nice kill"},
	})
	tw.AddVideo(TwitchVideo{ID: "vid1", Channel: "chan1", Duration: 600, Viewers: 1200}, log)
	tw.AddVideo(TwitchVideo{ID: "vid2", Channel: "chan1", Duration: 900, Viewers: 800}, chat.NewLog(nil))

	srv := httptest.NewServer(tw.Handler())
	defer srv.Close()

	store := NewStore()
	crawler := &Crawler{BaseURL: srv.URL, Store: store}

	channels, err := crawler.Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(channels) != 1 || channels[0] != "chan1" {
		t.Fatalf("channels = %v", channels)
	}

	n, err := crawler.CrawlChannels(channels)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("crawled = %d, want 2", n)
	}
	rec, ok := store.Video("vid1")
	if !ok || rec.Chat.Len() != 2 {
		t.Errorf("vid1 not stored correctly: %+v", rec)
	}

	// Re-crawl is a no-op.
	n, err = crawler.CrawlChannels(channels)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("re-crawl fetched %d videos, want 0", n)
	}
}

func TestCrawlerErrors(t *testing.T) {
	tw := NewSimTwitch()
	srv := httptest.NewServer(tw.Handler())
	defer srv.Close()
	crawler := &Crawler{BaseURL: srv.URL, Store: NewStore()}
	if _, err := crawler.Videos("ghost"); err == nil {
		t.Error("unknown channel accepted")
	}
	if err := crawler.CrawlVideo(TwitchVideo{ID: "ghost"}); err == nil {
		t.Error("unknown video accepted")
	}
}

// trainedInitializer builds a minimal trained initializer for service
// tests — the shared perf-package recipe.
func trainedInitializer(t *testing.T) (*core.Initializer, sim.VideoData) {
	t.Helper()
	init, target, err := perf.TrainedFixture()
	if err != nil {
		t.Fatal(err)
	}
	return init, target
}

func TestServiceEndToEnd(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	if err := store.PutVideo(VideoRecord{
		ID:       target.Video.ID,
		Duration: target.Video.Duration,
		Chat:     target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}
	svc := &Service{
		Store:  store,
		Engine: testEngine(t, init),
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Liveness probe.
	resp, err := http.Get(srv.URL + "/api/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ping = %d", resp.StatusCode)
	}

	// Fetch highlights.
	resp, err = http.Get(srv.URL + "/api/highlights?video=" + target.Video.ID + "&k=5")
	if err != nil {
		t.Fatal(err)
	}
	var hr HighlightsResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hr.Dots) == 0 {
		t.Fatal("no red dots served")
	}

	// Report interactions of simulated viewers around the first dot.
	rng := stats.NewRand(7)
	h, _ := sim.NearestHighlight(target.Video, hr.Dots[0].Time)
	var events []play.Event
	for i := 0; i < 10; i++ {
		events = append(events, sim.SimulateViewer(rng, "u", target.Video, hr.Dots[0].Time, h, sim.DefaultViewerBehavior())...)
	}
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/api/interactions?video="+target.Video.ID, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("interactions status = %d", resp.StatusCode)
	}

	// Trigger refinement: the endpoint enqueues a background job and
	// returns 202; the client polls the job until it completes.
	resp, err = http.Post(srv.URL+"/api/refine?video="+target.Video.ID, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refine status = %d, want 202", resp.StatusCode)
	}
	var job RefineJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.Job == "" {
		t.Fatal("refine returned no job id")
	}

	var refined RefineJobResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(srv.URL + "/api/refine/status?job=" + job.Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&refined); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if refined.Status == engine.JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refine job stuck in status %q", refined.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(refined.Boundaries) != len(hr.Dots) {
		t.Errorf("boundaries = %d, want %d", len(refined.Boundaries), len(hr.Dots))
	}

	// The completed job also persisted refined state to the store.
	rec, ok := store.Video(target.Video.ID)
	if !ok || len(rec.Boundaries) != len(hr.Dots) {
		t.Errorf("store boundaries = %d, want %d", len(rec.Boundaries), len(hr.Dots))
	}
}

func TestServiceLiveEndpoints(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{
		Store:  NewStore(),
		Engine: testEngine(t, init),
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	msgs := target.Chat.Log.Messages()
	if len(msgs) < 100 {
		t.Fatalf("simulated chat too small: %d messages", len(msgs))
	}

	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Stream the first half, then the second half, as a live channel.
	half := len(msgs) / 2
	for _, batch := range [][]chat.Message{msgs[:half], msgs[half:]} {
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		resp := post("/api/live/chat?channel=streamer", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("live chat status = %d, want 202", resp.StatusCode)
		}
	}

	// Past-the-end clock advance finalizes the remaining windows.
	resp := post("/api/live/advance?channel=streamer&now=1e9", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("advance status = %d, want 202", resp.StatusCode)
	}

	// Poll until the asynchronous mailbox has drained and dots appear.
	var dots LiveDotsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/api/live/dots?channel=streamer")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&dots); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if len(dots.Dots) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(dots.Dots) == 0 {
		t.Fatal("live session emitted no dots")
	}

	// Cursor-based polling returns only fresh dots: nothing new after the
	// stream went quiet.
	r, err := http.Get(srv.URL + "/api/live/dots?channel=streamer&cursor=" + strconv.Itoa(dots.Cursor))
	if err != nil {
		t.Fatal(err)
	}
	var fresh LiveDotsResponse
	if err := json.NewDecoder(r.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(fresh.Dots) != 0 {
		t.Errorf("cursor poll returned %d stale dots", len(fresh.Dots))
	}

	// Out-of-order chat is rejected with 409 and does not kill the session.
	body, err := json.Marshal([]chat.Message{{Time: 0, Text: "stale"}})
	if err != nil {
		t.Fatal(err)
	}
	resp = post("/api/live/chat?channel=streamer", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("out-of-order chat status = %d, want 409", resp.StatusCode)
	}

	// Closing the broadcast flushes, returns the emission history, and
	// frees the channel for a fresh session with a reset clock.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/live/session?channel=streamer", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var closed LiveDotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&closed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(closed.Dots) == 0 {
		t.Error("session close returned no emission history")
	}
	r2, err := http.Get(srv.URL + "/api/live/dots?channel=streamer")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("dots after close = %d, want 404", r2.StatusCode)
	}
	resp = post("/api/live/chat?channel=streamer", body) // time 0 is valid again
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("re-ingest after close status = %d, want 202", resp.StatusCode)
	}
}

func TestServiceErrorPaths(t *testing.T) {
	init, _ := trainedInitializer(t)
	svc := &Service{
		Store:  NewStore(),
		Engine: testEngine(t, init),
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/api/highlights", http.StatusBadRequest},
		{"GET", "/api/highlights?video=ghost", http.StatusNotFound},
		{"GET", "/api/highlights?video=ghost&k=bogus", http.StatusBadRequest},
		{"POST", "/api/interactions", http.StatusBadRequest},
		{"POST", "/api/refine", http.StatusBadRequest},
		{"POST", "/api/refine?video=ghost", http.StatusNotFound},
		{"GET", "/api/refine/status", http.StatusBadRequest},
		{"GET", "/api/refine/status?job=ghost", http.StatusNotFound},
		{"POST", "/api/live/chat", http.StatusBadRequest},
		{"POST", "/api/live/advance?channel=ghost&now=10", http.StatusNotFound},
		{"POST", "/api/live/advance?channel=ghost&now=bogus", http.StatusBadRequest},
		{"GET", "/api/live/dots", http.StatusBadRequest},
		{"GET", "/api/live/dots?channel=ghost", http.StatusNotFound},
		{"DELETE", "/api/live/session", http.StatusBadRequest},
		{"DELETE", "/api/live/session?channel=ghost", http.StatusNotFound},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, bytes.NewReader([]byte("[]")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
}
