package platform

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lightor/internal/wal"
)

// Standby checkpoint replicas: the receiver half of cross-node checkpoint
// replication (see replicator.go for the sender half).
//
// A ReplicaStore holds OTHER nodes' checkpoint envelopes — one file per
// channel under a dedicated replica area of the data-dir — so that when a
// node dies together with its disk, the survivors that were its ring
// successors can resume its channels from these local copies alone. The
// store is deliberately not the CheckpointStore: replicas must never be
// picked up by this node's own startup resume (ResumeSessions), only by
// the explicit failover path, so they live in their own directory with
// their own file format.

// replicaFormat is the wal envelope format name for replica files. The
// payload is the 16-byte big-endian mark (float64 watermark, uint64
// incarnation) followed by the checkpoint state exactly as the owner's
// store accepted it.
const (
	replicaFormat  = "lightor-replica"
	replicaVersion = 2
	replicaExt     = ".rep"
)

// maxReplicaState caps an accepted checkpoint envelope. Detector snapshots
// are compact (histogram + windows + emission history); anything near this
// limit is not one.
const maxReplicaState = 64 << 20

// ReplicaMark orders one channel's checkpoint envelopes: by broadcast
// incarnation first, then by detector-clock watermark within it. The
// owner assigns the incarnation when the broadcast first checkpoints on
// it (see Replicator.incarnation), so a channel id reused by a new
// broadcast — or adopted by a new owner — ships under a larger one.
type ReplicaMark struct {
	Inc       uint64  `json:"inc"`
	Watermark float64 `json:"watermark"`
}

// before reports whether m sorts strictly before o.
func (m ReplicaMark) before(o ReplicaMark) bool {
	return m.Inc < o.Inc || (m.Inc == o.Inc && m.Watermark < o.Watermark)
}

// tombstone reports whether m is a Delete's fence rather than a stored
// envelope: watermark +Inf, above every delivery of its incarnation.
func (m ReplicaMark) tombstone() bool { return math.IsInf(m.Watermark, 1) }

// ReplicaStore is the durable per-channel replica area. All operations are
// safe for concurrent use. Marks are monotone per channel: a delivery at
// or below the stored mark is dropped (idempotent, duplicate- and
// reorder-proof), and a deleted channel leaves an in-memory tombstone so a
// late in-flight delivery of the closed broadcast cannot resurrect it
// within this process's lifetime. The tombstone fences only that
// broadcast's incarnation: a new broadcast reusing the channel id
// replicates normally.
type ReplicaStore struct {
	dir string

	mu    sync.Mutex
	marks map[string]ReplicaMark // stored mark per channel, or a tombstone
}

// OpenReplicaStore opens (creating if needed) the replica area at dir and
// indexes the envelopes already present. Corrupt files are skipped — and
// reported joined into the returned error alongside a usable store —
// mirroring ResumeSessions: one torn replica must not take down the
// healthy ones next to it.
func OpenReplicaStore(dir string) (*ReplicaStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("platform: creating replica dir: %w", err)
	}
	rs := &ReplicaStore{dir: dir, marks: make(map[string]ReplicaMark)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("platform: reading replica dir: %w", err)
	}
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, replicaExt) {
			continue
		}
		channel, derr := decodeReplicaName(name)
		if derr != nil {
			errs = append(errs, fmt.Errorf("platform: replica file %q: %w", name, derr))
			continue
		}
		mark, _, rerr := readReplicaFile(filepath.Join(dir, name))
		if rerr != nil {
			errs = append(errs, fmt.Errorf("platform: replica %q: %w", channel, rerr))
			continue
		}
		rs.marks[channel] = mark
	}
	return rs, errors.Join(errs...)
}

// Dir returns the replica area's directory.
func (rs *ReplicaStore) Dir() string { return rs.dir }

// path maps a channel id to its replica file. Hex-encoding the id keeps
// arbitrary channel names (slashes, dots, unicode) out of the filesystem
// namespace.
func (rs *ReplicaStore) path(channel string) string {
	return filepath.Join(rs.dir, hex.EncodeToString([]byte(channel))+replicaExt)
}

func decodeReplicaName(name string) (string, error) {
	raw, err := hex.DecodeString(strings.TrimSuffix(name, replicaExt))
	if err != nil {
		return "", fmt.Errorf("undecodable name: %w", err)
	}
	return string(raw), nil
}

// Put stores a replica delivery if it advances the channel's mark,
// reporting whether it was applied. Stale or duplicate deliveries (at or
// below the stored mark, including the tombstone a Delete of the same
// incarnation leaves) return (false, nil) — dropped, not an error. The
// write is atomic: temp file, fsync, rename, so a crash mid-write leaves
// the previous envelope intact.
func (rs *ReplicaStore) Put(channel string, mark ReplicaMark, state []byte) (bool, error) {
	if len(state) > maxReplicaState {
		return false, fmt.Errorf("platform: replica state for %q exceeds %d bytes", channel, maxReplicaState)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if stored, ok := rs.marks[channel]; ok && !stored.before(mark) {
		return false, nil
	}
	payload := make([]byte, 16+len(state))
	binary.BigEndian.PutUint64(payload, math.Float64bits(mark.Watermark))
	binary.BigEndian.PutUint64(payload[8:], mark.Inc)
	copy(payload[16:], state)

	path := rs.path(channel)
	tmp := path + ".tmp"
	if err := writeReplicaFile(tmp, payload); err != nil {
		os.Remove(tmp)
		return false, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("platform: publishing replica for %q: %w", channel, err)
	}
	if d, err := os.Open(rs.dir); err == nil {
		d.Sync()
		d.Close()
	}
	rs.marks[channel] = mark
	return true, nil
}

func writeReplicaFile(path string, payload []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wal.WriteEnvelope(f, replicaFormat, replicaVersion, payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReplicaFile(path string) (mark ReplicaMark, state []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return mark, nil, err
	}
	defer f.Close()
	_, payload, err := wal.ReadEnvelope(f, replicaFormat, replicaVersion)
	if err != nil {
		return mark, nil, err
	}
	if len(payload) < 16 {
		return mark, nil, fmt.Errorf("%w: replica payload shorter than its mark", wal.ErrCorrupt)
	}
	mark.Watermark = math.Float64frombits(binary.BigEndian.Uint64(payload))
	mark.Inc = binary.BigEndian.Uint64(payload[8:])
	return mark, payload[16:], nil
}

// Get reads a channel's replica envelope back: the checkpoint state and
// the mark it was stored under. ok is false for unknown or tombstoned
// channels, and for a file that fails validation on read.
func (rs *ReplicaStore) Get(channel string) (state []byte, mark ReplicaMark, ok bool) {
	rs.mu.Lock()
	stored, known := rs.marks[channel]
	rs.mu.Unlock()
	if !known || stored.tombstone() {
		return nil, mark, false
	}
	mark, state, err := readReplicaFile(rs.path(channel))
	if err != nil {
		return nil, mark, false
	}
	return state, mark, true
}

// Delete removes a channel's replica of broadcast incarnation inc (and any
// older one) and tombstones that incarnation: the broadcast ended (or its
// owner handed it off), and a late in-flight delivery of it must not
// resurrect it. A stored envelope of a newer incarnation is left alone —
// it belongs to a broadcast the delete does not speak for. The tombstone
// is in-memory only — after a restart the owner no longer lists the
// channel, so anti-entropy never re-ships it.
func (rs *ReplicaStore) Delete(channel string, inc uint64) error {
	tomb := ReplicaMark{Inc: inc, Watermark: math.Inf(1)}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if stored, ok := rs.marks[channel]; ok && !stored.before(tomb) {
		return nil
	}
	err := os.Remove(rs.path(channel))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rs.marks[channel] = tomb
	return nil
}

// Marks returns the stored mark per live (non-tombstoned) channel — the
// receiver's half of the anti-entropy comparison.
func (rs *ReplicaStore) Marks() map[string]ReplicaMark {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]ReplicaMark, len(rs.marks))
	for ch, m := range rs.marks {
		if !m.tombstone() {
			out[ch] = m
		}
	}
	return out
}

// Channels returns the live (non-tombstoned) replicated channels, sorted.
func (rs *ReplicaStore) Channels() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.marks))
	for ch, m := range rs.marks {
		if !m.tombstone() {
			out = append(out, ch)
		}
	}
	sort.Strings(out)
	return out
}
