package mc

// Micro-benchmarks for the sealed tier's two hot spots: the claim
// path's sealed lookup (find, whose hits are confirmed by a full-key
// decode) and the level-boundary seal.

import (
	"fmt"
	"testing"
)

// benchSealedEnc returns the id-th synthetic 19-byte encoding: a fixed
// layout in which successive ids differ in a few scattered bytes, as
// key-ordered packed model states do.
func benchSealedEnc(id int) []byte {
	enc := []byte("ttastar-sealed-encX")
	enc[2] = byte(id)
	enc[7] = byte(id >> 8)
	enc[11] = byte(id >> 16)
	enc[15] = byte(id * 7)
	enc[18] = byte(id % 5)
	return enc
}

// benchParentWord returns the id-th entry's parent word: a sealed ref
// (ordinal<<shardBits | shard) plus one, as the engine stores them.
// Successive entries of one shard descend from parents about
// numShards/3 frontier positions apart, which sit in other shards
// whose sealed ordinal bases differ by hundreds; about one entry in
// nine shares its predecessor's parent.
func benchParentWord(id int) uint64 {
	fp := (id - id/9) * numShards / 3 // the parent's frontier position
	shard := uint32(fp*37) % numShards
	ord := 1000 + shard*97%300 + uint32(fp/numShards)
	return uint64(makeRef(shard, ord)) + 1
}

// benchSealedShard seals encodings 0..n-1 into one shard the way a seal
// does: grow the index when due, append, insert.
func benchSealedShard(n int) *sealedShard {
	ss := &sealedShard{}
	var d sealedDecoder
	for i := 0; i < n; i++ {
		enc := benchSealedEnc(i)
		if ss.indexNeedsGrow() {
			ss.indexGrow(true, &d)
		}
		ss.appendEntry(enc, benchParentWord(i), true)
		ss.indexInsert(uint32(hashBytes(enc)>>32), ss.count-1)
	}
	return ss
}

// BenchmarkSealedFind measures one sealed lookup over a 40,000-entry
// shard: hit (a sealed duplicate, confirmed by decoding its restart
// block) and miss (an absent state, refuted by the index alone unless
// a remainder collides).
func BenchmarkSealedFind(b *testing.B) {
	const n = 40000
	ss := benchSealedShard(n)
	for _, tc := range []struct {
		name string
		base int
		hit  bool
	}{{"hit", 0, true}, {"miss", n, false}} {
		encs := make([][]byte, 4096)
		phs := make([]uint32, len(encs))
		for i := range encs {
			encs[i] = benchSealedEnc(tc.base + i*9%n)
			phs[i] = uint32(hashBytes(encs[i]) >> 32)
		}
		b.Run(tc.name, func(b *testing.B) {
			var pc probeCounter
			ss.find(phs[0], encs[0], &pc, true) // size the decoder buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(encs)
				if _, ok := ss.find(phs[j], encs[j], &pc, true); ok != tc.hit {
					b.Fatalf("find(%q) = %v, want %v", encs[j], ok, tc.hit)
				}
			}
		})
	}
}

// BenchmarkSeal measures one level-boundary seal of a 100,000-state
// level whose 100,000 children stay live, on 1 and 4 workers.
func BenchmarkSeal(b *testing.B) {
	const n = 100000
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pcs := make([]probeCounter, workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v := newVisitedSet(2*n + 1)
				level := make([]uint32, n)
				next := make([]uint32, n)
				for j := range level {
					enc := benchSealedEnc(j)
					_, level[j] = v.claim(enc, hashBytes(enc), 0, uint64(j), false, 0, &pcs[0])
				}
				base := uint64(n)
				for j := range next {
					enc := benchSealedEnc(n + j)
					_, next[j] = v.claim(enc, hashBytes(enc), level[j], base+uint64(j), true, base, &pcs[0])
				}
				b.StartTimer()
				v.seal(pcs, level, next)
			}
		})
	}
}

// TestSealedFindDoesNotAllocate: a sealed lookup reuses the worker's
// decoder buffer, hit or miss.
func TestSealedFindDoesNotAllocate(t *testing.T) {
	const n = 2000
	ss := benchSealedShard(n)
	var pc probeCounter
	hit, miss := benchSealedEnc(n/2), benchSealedEnc(n+1)
	ss.find(uint32(hashBytes(hit)>>32), hit, &pc, true) // size the decoder buffer
	allocs := testing.AllocsPerRun(100, func() {
		ss.find(uint32(hashBytes(hit)>>32), hit, &pc, true)
		ss.find(uint32(hashBytes(miss)>>32), miss, &pc, true)
	})
	if allocs != 0 {
		t.Fatalf("sealed find allocates %.1f times per lookup pair", allocs)
	}
}
