package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/platform"
	"lightor/internal/play"
)

// The traced server: the same stack lightor-server builds, assembled here
// from the public constructors (OpenFileBackend, NewStoreWith, engine.New
// with Checkpoints, Service.Handler) and served on a loopback listener,
// with spans recorded only by decorators on interfaces the program
// already takes. Without -trace-out it runs undecorated, which is the
// untraced side of the overhead measurement.

// span is one recorded interval or instant, in Unix nanoseconds so the
// generator process can line it up with its own timestamps.
type span struct {
	Name    string `json:"n"`
	ID      int64  `json:"id,omitempty"` // X-Bench-Id of the request that caused it
	Key     string `json:"k,omitempty"`  // channel or video
	Start   int64  `json:"s"`
	End     int64  `json:"e"`
	Status  int    `json:"st,omitempty"`
	Bytes   int    `json:"b,omitempty"`
	Version uint64 `json:"v,omitempty"`
	Count   int    `json:"c,omitempty"` // dots published so far / frame end cursor
}

// traceFile is what the traced server writes when it shuts down.
type traceFile struct {
	Spans      []span `json:"spans"`
	BacklogMax int    `json:"backlog_max"`
	PushDrops  uint64 `json:"push_drops"`
}

// recorder keeps spans in memory until shutdown.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) timed(name, key string, bytes int, f func() error) error {
	start := time.Now().UnixNano()
	err := f()
	r.add(span{Name: name, Key: key, Start: start, End: time.Now().UnixNano(), Bytes: bytes})
	return err
}

// tracedBackend decorates the durable backend: every store.* span covers
// platform.FileBackend together with the WAL beneath it.
type tracedBackend struct {
	platform.Backend
	deg platform.DegradedBackend
	rec *recorder
}

func (b *tracedBackend) Degraded() (bool, string) { return b.deg.Degraded() }

func (b *tracedBackend) PutCheckpoint(channel string, state []byte) error {
	return b.rec.timed("store.put_checkpoint", channel, len(state), func() error { return b.Backend.PutCheckpoint(channel, state) })
}

func (b *tracedBackend) AppendEvents(id string, events []play.Event) error {
	return b.rec.timed("store.append_events", id, len(events), func() error { return b.Backend.AppendEvents(id, events) })
}

func (b *tracedBackend) AppendEventsBatch(batch []platform.EventBatch) error {
	return b.rec.timed("store.append_events", "", len(batch), func() error { return b.Backend.AppendEventsBatch(batch) })
}

func (b *tracedBackend) SetRefined(id string, dots []core.RedDot, spans []core.Interval) error {
	return b.rec.timed("store.set_refined", id, len(spans), func() error { return b.Backend.SetRefined(id, dots, spans) })
}

// tracedListener decorates the Service's own push hub as the engine's
// DotListener, stamping each publication before forwarding it.
type tracedListener struct {
	next engine.DotListener
	rec  *recorder
}

func (l *tracedListener) DotsPublished(s *engine.Session) {
	now := time.Now().UnixNano()
	_, n, ver := s.DotsPage(0)
	l.rec.add(span{Name: "engine.publish", Key: s.Channel(), Start: now, End: now, Version: ver, Count: n})
	l.next.DotsPublished(s)
}

func (l *tracedListener) SessionClosed(channel string) { l.next.SessionClosed(channel) }

// pushHub returns the listener the Service registered with the engine.
// Service keeps its hub in an unexported field and has no accessor, so
// the traced server reaches it by reflection in order to put a timing
// decorator in front of it without changing the program.
func pushHub(svc *platform.Service) (engine.DotListener, error) {
	f := reflect.ValueOf(svc).Elem().FieldByName("push")
	if !f.IsValid() || !f.CanAddr() {
		return nil, errors.New("platform.Service has no push hub field to decorate")
	}
	l, ok := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface().(engine.DotListener)
	if !ok {
		return nil, errors.New("platform.Service's push hub is not an engine.DotListener")
	}
	return l, nil
}

// tracedHandler times every request by route, keyed by the generator's
// X-Bench-Id, and attaches an in-process push subscriber to every
// channel a client streams, so delivery can be split at Pop.
type tracedHandler struct {
	next http.Handler
	svc  *platform.Service
	rec  *recorder
	subs sync.WaitGroup
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeKind names the handler a request reaches.
func routeKind(r *http.Request) string {
	switch r.URL.Path {
	case "/api/live/chat":
		return "live_chat"
	case "/api/live/session":
		return "live_close"
	case "/api/live/dots", "/api/highlights":
		return "reads"
	case "/api/interactions":
		if r.Method == http.MethodPost {
			return "interactions"
		}
		return "interactions_page"
	case "/api/refine":
		return "refine"
	case "/api/refine/status":
		return "refine_status"
	}
	return "other"
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/live/stream" {
		h.follow(r.URL.Query().Get("channel"))
		h.next.ServeHTTP(w, r)
		return
	}
	id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Id"), 10, 64)
	key := r.URL.Query().Get("channel")
	if key == "" {
		key = r.URL.Query().Get("video")
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now().UnixNano()
	h.next.ServeHTTP(sw, r)
	h.rec.add(span{Name: "platform.handler." + routeKind(r), ID: id, Key: key, Start: start, End: time.Now().UnixNano(), Status: sw.status})
}

// follow subscribes in-process to channel from cursor 0 and stamps every
// frame it pops, until the stream's terminal frame.
func (h *tracedHandler) follow(channel string) {
	ds, err := h.svc.SubscribeDots(channel, 0)
	if err != nil {
		return // the HTTP handler answers the same error
	}
	h.subs.Add(1)
	go func() {
		defer h.subs.Done()
		defer ds.Close()
		for {
			select {
			case <-ds.Ready():
			case <-ds.Done():
			}
			for {
				f, ok := ds.Pop()
				if !ok {
					break
				}
				now := time.Now().UnixNano()
				h.rec.add(span{Name: "push.pop", Key: channel, Start: now, End: now, Version: f.Version, Count: f.End, Bytes: len(f.Data)})
				if f.Terminal {
					return
				}
			}
		}
	}()
}

// serveTraced runs the in-process stack on addr with its data under dir
// until SIGTERM, then drains like lightor-server and, when traceOut is
// set, writes the recorded spans there.
func serveTraced(addr, dir string, seed int64, traceOut string) error {
	m, err := buildModel(seed)
	if err != nil {
		return err
	}
	tw := platform.NewSimTwitch()
	for _, v := range m.videos {
		tw.AddVideo(platform.TwitchVideo{ID: v.video.ID, Channel: v.channel, Duration: v.video.Duration, Viewers: v.viewers}, v.log)
	}
	apiSrv := httptest.NewServer(tw.Handler())
	defer apiSrv.Close()

	fb, err := platform.OpenFileBackend(dir, platform.FileConfig{EventRetention: 100000})
	if err != nil {
		return err
	}
	rec := &recorder{}
	tracing := traceOut != ""
	var backend platform.Backend = fb
	if tracing {
		backend = &tracedBackend{Backend: fb, deg: fb, rec: rec}
	}
	store := platform.NewStoreWith(backend)
	crawler := &platform.Crawler{BaseURL: apiSrv.URL, Store: store}
	chans, err := crawler.Channels()
	if err != nil {
		return err
	}
	if _, err := crawler.CrawlChannels(chans); err != nil {
		return err
	}
	// lightor-server's defaults: -checkpoint-interval 15s, -max-refine-queue 256.
	eng, err := engine.New(m.init, m.ext, engine.Config{
		MaxQueuedRefines:   256,
		Checkpoints:        store,
		CheckpointInterval: 15 * time.Second,
	})
	if err != nil {
		return err
	}
	svc := &platform.Service{
		Store:             store,
		Engine:            eng,
		Crawler:           crawler,
		MaxSubscribers:    1 << 20,
		PushHeartbeat:     15 * time.Second,
		MaxInflightWrites: 1024,
		MaxChannelBacklog: 256,
	}
	var handler http.Handler = svc.Handler()
	th := &tracedHandler{next: handler, svc: svc, rec: rec}
	stopSampler := make(chan struct{})
	var backlogMax int
	var sampler sync.WaitGroup
	if tracing {
		hub, err := pushHub(svc)
		if err != nil {
			return err
		}
		eng.Sessions().SetDotListener(&tracedListener{next: hub, rec: rec})
		handler = th
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
				}
				for _, ch := range eng.Sessions().Channels() {
					if s, ok := eng.Sessions().Get(ch); ok {
						backlogMax = max(backlogMax, s.Pending())
					}
				}
			}
		}()
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	select {
	case <-sigs:
	case err := <-served:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.ClosePush()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := eng.Close(ctx); err != nil {
		log.Printf("engine drain: %v", err)
	}
	close(stopSampler)
	sampler.Wait()
	th.subs.Wait()
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	if !tracing {
		return nil
	}
	rec.mu.Lock()
	tf := traceFile{Spans: rec.spans, BacklogMax: backlogMax, PushDrops: svc.PushStats().Drops}
	rec.mu.Unlock()
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(traceOut, raw, 0o644)
}
