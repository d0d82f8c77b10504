package platform

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

// saveStore and loadStore round-trip a store through the checksummed
// snapshot envelope FileBackend compaction writes and recovery reads.
func saveStore(s *Store, w io.Writer) error { return writeSnapshot(w, snapshotBackend(s.Backend())) }

func loadStore(r io.Reader) (*Store, error) {
	snap, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	s := NewStore()
	if err := applySnapshot(snap, s.Backend()); err != nil {
		return nil, err
	}
	return s, nil
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	log := chat.NewLog([]chat.Message{
		{Time: 1, User: "a", Text: "nice"},
		{Time: 2, User: "b", Text: "kill"},
	})
	if err := s.PutVideo(VideoRecord{ID: "v1", Duration: 100, Chat: log}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRedDots("v1", []core.RedDot{{Time: 50, Score: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBoundaries("v1", []core.Interval{{Start: 45, End: 60}}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogEvents("v1", []play.Event{
		{User: "u", Seq: 0, Type: play.EventPlay, Pos: 48},
		{User: "u", Seq: 1, Type: play.EventStop, Pos: 70},
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := saveStore(s, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rec, ok := loaded.Video("v1")
	if !ok {
		t.Fatal("video lost in round trip")
	}
	if rec.Duration != 100 || rec.Chat.Len() != 2 {
		t.Errorf("record = %+v", rec)
	}
	if len(rec.RedDots) != 1 || rec.RedDots[0].Time != 50 {
		t.Errorf("red dots = %v", rec.RedDots)
	}
	if len(rec.Boundaries) != 1 || rec.Boundaries[0].Start != 45 {
		t.Errorf("boundaries = %v", rec.Boundaries)
	}
	plays := loaded.Plays("v1")
	if len(plays) != 1 || plays[0].Start != 48 {
		t.Errorf("plays = %v", plays)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := loadStore(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := loadStore(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("bare v1-style JSON accepted")
	}
	if _, err := loadStore(strings.NewReader(
		`{"format":"lightor-store","version":99,"length":2,"crc32":0}` + "\n{}")); err == nil {
		t.Error("future version accepted")
	}
}

// savedStore builds a small store and returns its serialized snapshot.
func savedStore(t *testing.T) []byte {
	t.Helper()
	s := NewStore()
	if err := s.PutVideo(VideoRecord{
		ID:       "v1",
		Duration: 90,
		Chat:     chat.NewLog([]chat.Message{{Time: 1, User: "a", Text: "gg"}}),
		RedDots:  []core.RedDot{{Time: 30, Score: 0.7}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogEvents("v1", []play.Event{{User: "u", Type: play.EventPlay, Pos: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("chan-1", []byte{0x01, 0x02, 0xfe}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveStore(s, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSnapshotRejectsTruncation: every truncated prefix of a valid
// snapshot must fail — the envelope's declared length catches cuts the
// JSON decoder would otherwise accept as a shorter valid document.
func TestReadSnapshotRejectsTruncation(t *testing.T) {
	full := savedStore(t)
	if _, err := loadStore(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
	for cut := 0; cut < len(full); cut += 11 {
		if _, err := loadStore(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestReadSnapshotRejectsCorruption: a flipped bit anywhere in the payload
// must trip the envelope CRC.
func TestReadSnapshotRejectsCorruption(t *testing.T) {
	full := savedStore(t)
	for pos := bytes.IndexByte(full, '\n') + 1; pos < len(full); pos += 19 {
		bad := append([]byte(nil), full...)
		bad[pos] ^= 0x20
		if _, err := loadStore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
}

// TestSaveLoadKeepsCheckpoints: session checkpoints ride the snapshot so a
// restore can resume live broadcasts.
func TestSaveLoadKeepsCheckpoints(t *testing.T) {
	loaded, err := loadStore(bytes.NewReader(savedStore(t)))
	if err != nil {
		t.Fatal(err)
	}
	ckpts := loaded.Checkpoints()
	if got := ckpts["chan-1"]; !bytes.Equal(got, []byte{0x01, 0x02, 0xfe}) {
		t.Errorf("checkpoint round trip = %v", got)
	}
}

func TestServiceOnDemandCrawl(t *testing.T) {
	// A video the store has never seen must be crawled lazily when the
	// service is configured with a crawler.
	init, target := trainedInitializer(t)
	tw := NewSimTwitch()
	tw.AddVideo(TwitchVideo{
		ID:       target.Video.ID,
		Channel:  "chan",
		Duration: target.Video.Duration,
		Viewers:  900,
	}, target.Chat.Log)
	twitchSrv := httptest.NewServer(tw.Handler())
	defer twitchSrv.Close()

	store := NewStore() // empty: nothing crawled offline
	svc := &Service{
		Store:   store,
		Engine:  testEngine(t, init),
		Crawler: &Crawler{BaseURL: twitchSrv.URL, Store: store},
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/highlights?video=" + target.Video.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("on-demand crawl path returned %d", resp.StatusCode)
	}
	if !store.HasChat(target.Video.ID) {
		t.Error("video was served but not stored")
	}

	// A video the platform itself does not know stays 404.
	resp2, err := http.Get(srv.URL + "/api/highlights?video=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost video returned %d, want 404", resp2.StatusCode)
	}
}

func TestCrawlerLookupVideo(t *testing.T) {
	tw := NewSimTwitch()
	tw.AddVideo(TwitchVideo{ID: "v9", Channel: "c", Duration: 60, Viewers: 5}, chat.NewLog(nil))
	srv := httptest.NewServer(tw.Handler())
	defer srv.Close()
	c := &Crawler{BaseURL: srv.URL, Store: NewStore()}
	v, err := c.LookupVideo("v9")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "v9" || v.Duration != 60 {
		t.Errorf("LookupVideo = %+v", v)
	}
	if _, err := c.LookupVideo("missing"); err == nil {
		t.Error("missing video accepted")
	}
}
