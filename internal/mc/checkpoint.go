package mc

// Checkpoint codecs.
//
// Two formats share one file envelope: magic, uvarint version, body,
// and an FNV-64a trailer over everything before it. Files are written
// to a temp file in the target directory and renamed into place, so a
// crash mid-write can never leave a truncated file where a valid one
// was. Each reader accepts exactly its own version and never modifies
// the file: any other version, a checksum mismatch or an out-of-range
// field fails with ErrBadCheckpoint and leaves the file for inspection.
//
//   - Version 5 is the engine snapshot (writeSnapshot, readSnapshot),
//     written in both seal modes. It is taken at a level boundary — the
//     only point where the whole search state is the visited set, the
//     frontier and a few counters — and stores the sealed arenas
//     wholesale plus every live entry with its real claim key and
//     parent ref. Resuming therefore replays the remaining levels
//     exactly as the uninterrupted run would have, and together with
//     the min-claim-key determinism of the parallel engine the resumed
//     result is byte-identical to an uninterrupted one for any worker
//     count. Checkpoints are deleted on every definite verdict, so no
//     older engine format needs reading.
//   - Version 4 is the distributed worker's per-level delta
//     (ShardStore.WriteDelta, ReadCheckpoint): one record per state
//     with its parent as an encoding, because the parent may live on
//     another worker.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ttastar/internal/retry"
)

const (
	checkpointMagic = "TTAMCCP\x00"
	deltaVersion    = 4
	snapshotVersion = 5
)

// checkpointFlagReduced marks a reduced (quotient) search in the flags
// word of either format.
const checkpointFlagReduced = 1 << 0

// ErrCheckpointCorrupt reports a checkpoint file that failed validation:
// wrong magic, unsupported version, checksum mismatch, truncation, or an
// internally inconsistent record graph. The file is never modified or
// removed by the reader — a corrupt snapshot is left in place for
// inspection.
var ErrCheckpointCorrupt = errors.New("mc: checkpoint corrupt")

// ErrBadCheckpoint is the pre-PR8 name for ErrCheckpointCorrupt; they are
// the same sentinel, so errors.Is matches either.
var ErrBadCheckpoint = ErrCheckpointCorrupt

// ErrModelMismatch reports a structurally valid checkpoint whose model
// fingerprint differs from the resuming search's model: the snapshot's
// packed encodings were produced under a different configuration and
// would decode as garbage.
var ErrModelMismatch = errors.New("mc: checkpoint model mismatch")

// Checkpoint is a parsed per-level delta file of a distributed worker
// (ShardStore.WriteDelta): the states one level admitted on the
// worker's shards, plus the worker's frontier after that level.
type Checkpoint struct {
	// Depth is the next BFS level to expand.
	Depth int32
	// Reduced records whether the delta belongs to a reduced search,
	// whose states are canonical representatives.
	Reduced bool
	// Fingerprint is the digest of the model configuration the states
	// were packed under (FingerprintedModel); 0 when the model carries
	// none.
	Fingerprint uint64
	// Frontier is the worker's frontier in claim-key order.
	Frontier []State
	// Visited is the level's admitted states with their trace parents,
	// in claim-key order.
	Visited []VisitedEntry
}

// VisitedEntry is one visited-set record in a delta file.
type VisitedEntry struct {
	State     State
	Parent    State
	HasParent bool
}

// cpWriter serializes with uvarints and a sticky error.
type cpWriter struct {
	w       io.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

func (w *cpWriter) raw(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *cpWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.raw(w.scratch[:n])
}

// bstr writes a length-prefixed byte string; writers feed visited-set
// slices straight through, so the hot path stays allocation-free.
func (w *cpWriter) bstr(b []byte) {
	w.uvarint(uint64(len(b)))
	w.raw(b)
}

func (w *cpWriter) byte1(b byte) {
	w.scratch[0] = b
	w.raw(w.scratch[:1])
}

// sstr writes a length-prefixed string without converting to []byte;
// io.WriteString reaches bufio's copy-free WriteString fast path.
func (w *cpWriter) sstr(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = io.WriteString(w.w, s)
	}
}

// checkpointWrapWriter is a test seam: when non-nil, writeCheckpointFile
// routes every byte destined for the temp file through the returned
// writer, letting crash-consistency tests inject mid-write failures at
// arbitrary offsets without touching the filesystem layer.
var checkpointWrapWriter func(io.Writer) io.Writer

// Bounded backoff for transient checkpoint-write failures (S2): four
// attempts at 10ms, 20ms, 40ms keeps the worst-case stall under 100ms —
// negligible next to a level expansion — while riding out EINTR storms
// and momentary disk-pressure blips.
const (
	checkpointWriteAttempts = 4
	checkpointWriteBackoff  = 10 * time.Millisecond
)

// writeCheckpointFile owns the checkpoint file envelope — temp file,
// magic + version header, FNV-64a trailer, atomic rename — around a
// caller-supplied body. Both formats go through here so the envelope,
// the test write-wrap seam and the crash-consistency guarantees stay
// identical.
func writeCheckpointFile(path string, version uint64, body func(w *cpWriter)) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".mc-checkpoint-*")
	if err != nil {
		return fmt.Errorf("mc: checkpoint: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	var out io.Writer = tmp
	if checkpointWrapWriter != nil {
		out = checkpointWrapWriter(tmp)
	}
	h := fnv.New64a()
	bw := bufio.NewWriterSize(io.MultiWriter(out, h), 1<<16)
	w := &cpWriter{w: bw}
	w.raw([]byte(checkpointMagic))
	w.uvarint(version)
	body(w)
	if w.err == nil {
		w.err = bw.Flush()
	}
	if w.err == nil {
		var sum [8]byte
		binary.BigEndian.PutUint64(sum[:], h.Sum64())
		_, w.err = out.Write(sum[:])
	}
	if w.err == nil {
		w.err = tmp.Close()
	}
	if w.err != nil {
		return fmt.Errorf("mc: checkpoint: %w", w.err)
	}
	name := tmp.Name()
	tmp = nil // past the point of no return; the deferred cleanup must not fire
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("mc: checkpoint: %w", err)
	}
	return nil
}

// cpReader parses with uvarints, allocation guards and a sticky error.
type cpReader struct {
	r   *bytes.Reader
	err error
}

func (r *cpReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	return v
}

// bounded reads a uvarint that must not exceed max: header fields are
// narrowed to the engine's integer types, and a wrapped value would
// pass every later guard silently.
func (r *cpReader) bounded(max uint64, what string) uint64 {
	v := r.uvarint()
	if r.err == nil && v > max {
		r.err = fmt.Errorf("%w: %s %d out of range", ErrBadCheckpoint, what, v)
	}
	return v
}

func (r *cpReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrBadCheckpoint)
	}
	return b
}

// bytes reads a length-prefixed byte blob with an allocation guard.
func (r *cpReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("%w: blob length %d exceeds remaining payload", ErrBadCheckpoint, n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrBadCheckpoint)
		return nil
	}
	return buf
}

func (r *cpReader) str() State { return State(r.bytes()) }

func (r *cpReader) count() int {
	n := r.uvarint()
	// Every counted element occupies at least one payload byte.
	if r.err == nil && n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("%w: element count %d exceeds remaining payload", ErrBadCheckpoint, n)
		return 0
	}
	return int(n)
}

// end reports the sticky error, or trailing bytes after a complete body.
func (r *cpReader) end() error {
	if r.err == nil && r.r.Len() != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, r.r.Len())
	}
	return r.err
}

// readCheckpointEnvelope loads a checkpoint-format file, validates the
// envelope (magic, checksum, version) and returns a reader positioned
// at the body.
func readCheckpointEnvelope(path string, version uint64) (*cpReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mc: checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: file too short", ErrBadCheckpoint)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != binary.BigEndian.Uint64(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	if string(payload[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	r := &cpReader{r: bytes.NewReader(payload[len(checkpointMagic):])}
	if v := r.uvarint(); r.err == nil && v != version {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrBadCheckpoint, v, version)
	}
	return r, r.err
}

// ReadCheckpoint loads and validates a distributed worker's delta file.
// Any other format version, an engine snapshot included, fails with
// ErrBadCheckpoint. A missing file surfaces as an error wrapping
// os.ErrNotExist.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	r, err := readCheckpointEnvelope(path, deltaVersion)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{Depth: int32(r.bounded(math.MaxInt32, "depth"))}
	// Result depth and transitions: a delta never carries a verdict.
	r.bounded(0, "result depth")
	r.bounded(0, "transition count")
	cp.Reduced = r.uvarint()&checkpointFlagReduced != 0
	cp.Fingerprint = r.uvarint()
	cp.Frontier = make([]State, 0, r.count())
	for i := cap(cp.Frontier); i > 0 && r.err == nil; i-- {
		cp.Frontier = append(cp.Frontier, r.str())
	}
	cp.Visited = make([]VisitedEntry, 0, r.count())
	for i := cap(cp.Visited); i > 0 && r.err == nil; i-- {
		e := VisitedEntry{State: r.str(), Parent: r.str()}
		switch r.byte1() {
		case 0:
			if e.Parent != "" {
				r.err = fmt.Errorf("%w: root entry with parent bytes", ErrBadCheckpoint)
			}
		case 1:
			e.HasParent = true
		default:
			r.err = fmt.Errorf("%w: bad entry flags", ErrBadCheckpoint)
		}
		cp.Visited = append(cp.Visited, e)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return cp, nil
}

// sealedSnap is a parsed version-5 engine snapshot: the header, the
// per-shard sealed arenas, and the live tier. live holds every live
// entry in claim-key order; its last frontier entries are the
// frontier, since a level's claims carry keys above every earlier
// level's.
type sealedSnap struct {
	depth       int32
	resultDepth int
	transitions int
	reduced     bool
	fingerprint uint64
	nextBase    uint64
	shards      [numShards]sealedShardSnap
	live        []liveSnapEntry
	frontier    int
}

type sealedShardSnap struct {
	count    uint32
	restarts []uint32
	blob     []byte
}

type liveSnapEntry struct {
	enc []byte
	key uint64
	pw  uint64 // parent ref+1 in the restored ordinal space; 0 = root
}

// writeSnapshot writes the engine's state at a level boundary as a
// version-5 snapshot. restoreSealed re-claims the live entries in file
// order after the sealed ones, so each live parent ref is renumbered
// to the ordinal its target will get there; written in claim-key
// order, the bytes are the same for any worker count.
func writeSnapshot(path string, v *visitedSet, res Result, frontier []uint32,
	depth int32, fingerprint, nextBase uint64) error {
	live := frontier
	var renumber [numShards][]uint32 // live position → restored ordinal
	n := 0
	for s := range v.shards {
		sh := &v.shards[s]
		renumber[s] = make([]uint32, sh.ordCount-sh.liveBase)
		n += len(renumber[s])
	}
	if n != len(frontier) {
		// Only a NoSeal search keeps finished levels live.
		live = make([]uint32, 0, n)
		for s := range v.shards {
			sh := &v.shards[s]
			for o := sh.liveBase; o < sh.ordCount; o++ {
				live = append(live, makeRef(uint32(s), o))
			}
		}
		slices.SortFunc(live, func(a, b uint32) int { return cmp.Compare(v.keyOf(a), v.keyOf(b)) })
	}
	var next [numShards]uint32
	for s := range next {
		next[s] = v.shards[s].liveBase
	}
	for _, ref := range live {
		s, o := ref&(numShards-1), ref>>shardBits
		renumber[s][o-v.shards[s].liveBase] = next[s]
		next[s]++
	}
	return writeCheckpointFile(path, snapshotVersion, func(w *cpWriter) {
		w.uvarint(uint64(uint32(depth)))
		w.uvarint(uint64(res.Depth))
		w.uvarint(uint64(res.TransitionsExplored))
		flags := uint64(0)
		if res.Reduced {
			flags |= checkpointFlagReduced
		}
		w.uvarint(flags)
		w.uvarint(fingerprint)
		w.uvarint(nextBase)
		for si := range v.shards {
			ss := &v.shards[si].sealed
			w.uvarint(uint64(ss.count))
			prev := uint32(0)
			for _, r := range ss.restarts {
				w.uvarint(uint64(r - prev))
				prev = r
			}
			w.bstr(ss.blob)
		}
		w.uvarint(uint64(len(live)))
		for _, ref := range live {
			w.bstr(v.bytesOf(ref))
			w.uvarint(v.keyOf(ref))
			pw := v.parentWordOf(ref)
			if pw != 0 {
				if psh, po, sealed := v.refShard(uint32(pw - 1)); !sealed {
					ps := uint32(pw-1) & (numShards - 1)
					pw = uint64(makeRef(ps, renumber[ps][po-psh.liveBase])) + 1
				}
			}
			w.uvarint(pw)
		}
		w.uvarint(uint64(len(frontier)))
	})
}

// writeSnapshotRetry is writeSnapshot with transient filesystem
// failures (EINTR, EAGAIN, ENOSPC, ...) retried under bounded
// exponential backoff. It returns the number of retries performed
// alongside the final error, so callers can surface "the snapshot
// needed retries" or "the snapshot was ultimately dropped" in their
// stats instead of losing it silently.
func writeSnapshotRetry(path string, v *visitedSet, res Result,
	frontier []uint32, depth int32, fingerprint, nextBase uint64) (int, error) {
	return retry.Do(checkpointWriteAttempts, checkpointWriteBackoff, nil, func() error {
		return writeSnapshot(path, v, res, frontier, depth, fingerprint, nextBase)
	})
}

// readSnapshot loads and parses the engine snapshot at path. A missing
// file yields (nil, nil) — the search simply starts fresh, so
// interrupt/resume loops need no existence checks.
func readSnapshot(path string) (*sealedSnap, error) {
	r, err := readCheckpointEnvelope(path, snapshotVersion)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseSealedSnap(r)
}

// parseSealedSnap parses a version-5 body. Arena bytes and refs are
// validated later, by restoreSealed's checked decode sweep; this pass
// enforces ranges and structural bounds.
func parseSealedSnap(r *cpReader) (*sealedSnap, error) {
	s5 := &sealedSnap{
		depth:       int32(r.bounded(math.MaxInt32, "depth")),
		resultDepth: int(r.bounded(math.MaxInt, "result depth")),
		transitions: int(r.bounded(math.MaxInt, "transition count")),
	}
	s5.reduced = r.uvarint()&checkpointFlagReduced != 0
	s5.fingerprint = r.uvarint()
	s5.nextBase = r.bounded(keyMask, "claim-key base")
	for si := range s5.shards {
		sn := &s5.shards[si]
		cnt := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if cnt > maxOrdinal {
			return nil, fmt.Errorf("%w: sealed shard holds %d entries", ErrBadCheckpoint, cnt)
		}
		sn.count = uint32(cnt)
		nres := (int(cnt) + sealedRestartEvery - 1) / sealedRestartEvery
		if uint64(nres) > uint64(r.r.Len()) {
			return nil, fmt.Errorf("%w: restart count exceeds remaining payload", ErrBadCheckpoint)
		}
		prev := uint64(0)
		for i := 0; i < nres; i++ {
			prev += r.uvarint()
			if prev > uint64(1)<<32-1 {
				return nil, fmt.Errorf("%w: restart offset overflow", ErrBadCheckpoint)
			}
			sn.restarts = append(sn.restarts, uint32(prev))
		}
		sn.blob = r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		if nres > 0 && (sn.restarts[0] != 0 || int(sn.restarts[nres-1]) >= len(sn.blob)) {
			return nil, fmt.Errorf("%w: restart offsets out of range", ErrBadCheckpoint)
		}
		if cnt == 0 && len(sn.blob) != 0 {
			return nil, fmt.Errorf("%w: empty sealed shard with arena bytes", ErrBadCheckpoint)
		}
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		le := liveSnapEntry{enc: r.bytes()}
		le.key = r.bounded(keyMask, "live claim key")
		le.pw = r.uvarint()
		s5.live = append(s5.live, le)
	}
	s5.frontier = int(r.bounded(uint64(len(s5.live)), "frontier size"))
	if err := r.end(); err != nil {
		return nil, err
	}
	return s5, nil
}

// restoreSealed loads a v5 snapshot into an empty visited set: arenas
// are installed wholesale (their probe indexes rebuilt by a checked
// decode sweep replaying the writer's growth schedule, so capacities —
// and resident bytes — come out exactly as written), then the live
// entries are claimed in file order with their real keys, landing on
// the ordinals their refs were written against. It returns the live
// refs in file order; the last s5.frontier of them are the frontier,
// which with the snapshot's nextBase continues the interrupted run
// byte-for-byte.
func (v *visitedSet) restoreSealed(s5 *sealedSnap) ([]uint32, error) {
	total := int64(len(s5.live))
	for i := range s5.shards {
		total += int64(s5.shards[i].count)
	}
	if total > v.max {
		return nil, fmt.Errorf("mc: checkpoint holds %d states, over the %d-state budget: %w",
			total, v.max, ErrStateLimit)
	}
	var d sealedDecoder
	for si := range v.shards {
		sn := &s5.shards[si]
		if sn.count == 0 {
			continue
		}
		sh := &v.shards[si]
		ss := &sh.sealed
		ss.count = sn.count
		ss.blob = sn.blob
		ss.restarts = sn.restarts
		newLen := sealedInitialCells
		for uint64(sn.count)*4 > uint64(newLen)*3 {
			newLen = sealedGrow(newLen)
		}
		ss.index = make([]uint32, newLen)
		d.startAt(ss, 0, v.parentIsRef)
		for d.ord < sn.count {
			ord := d.ord
			if err := d.stepChecked(len(ss.blob)); err != nil {
				return nil, fmt.Errorf("%w: shard %d ordinal %d: %v", ErrBadCheckpoint, si, ord, err)
			}
			if d.pw != 0 {
				if d.pw-1 > uint64(^uint32(0)) {
					return nil, fmt.Errorf("%w: parent ref overflow", ErrBadCheckpoint)
				}
				pref := uint32(d.pw - 1)
				if pref>>shardBits >= s5.shards[pref&(numShards-1)].count {
					return nil, fmt.Errorf("%w: parent ref beyond sealed tier", ErrBadCheckpoint)
				}
			}
			h := hashBytes(d.enc)
			ss.indexInsert(uint32(h>>32), ord)
		}
		if d.off != len(ss.blob) {
			return nil, fmt.Errorf("%w: %d trailing arena bytes", ErrBadCheckpoint, len(ss.blob)-d.off)
		}
		// Seed the delta-chain carry so later seals append seamlessly.
		ss.lastEnc = append(ss.lastEnc[:0], d.enc...)
		ss.lastPW = d.pw
		sh.liveBase = sn.count
		sh.ordCount = sn.count
		v.resident.Add(ss.residentBytes())
	}
	v.count.Add(total - int64(len(s5.live))) // live entries charge via claim
	var pc probeCounter
	live := make([]uint32, 0, len(s5.live))
	for i, le := range s5.live {
		if le.key >= s5.nextBase || (i > 0 && le.key <= s5.live[i-1].key) {
			return nil, fmt.Errorf("%w: live claim keys out of order or past the resumed base", ErrBadCheckpoint)
		}
		hasParent := le.pw != 0
		var parent uint32
		if hasParent {
			if le.pw-1 > uint64(^uint32(0)) {
				return nil, fmt.Errorf("%w: parent ref overflow", ErrBadCheckpoint)
			}
			// A parent is sealed, or live and restored before its child.
			parent = uint32(le.pw - 1)
			if parent>>shardBits >= v.shards[parent&(numShards-1)].ordCount {
				return nil, fmt.Errorf("%w: live parent ref not yet restored", ErrBadCheckpoint)
			}
		}
		st, ref := v.claim(le.enc, hashBytes(le.enc), parent, le.key, hasParent, le.key+1, &pc)
		if st != claimNew {
			return nil, fmt.Errorf("%w: duplicate live state", ErrBadCheckpoint)
		}
		live = append(live, ref)
	}
	v.bumpPeak()
	return live, nil
}
