package core

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"netarch/internal/kb"
)

// Per-KB hardware index (DESIGN.md §16). Dominance pruning is the one
// slicing step whose cost grows with the catalog, yet its result — the
// surviving set, or "skyline", of each kind — depends only on the kind,
// the capabilities the slice can observe and the kind's mandatory SKUs:
// hundreds of distinct slice requests over a 50k-SKU catalog produce a
// handful of distinct skylines. The index precomputes the per-kind cost
// order and per-SKU capability classes once per KB, and memoizes each
// skyline under exactly the inputs it depends on. A memo miss runs the
// dominance scan over the precomputed order, so the keep set is the
// scan's, SKU for SKU.
//
// An index belongs to one (KB pointer, generation) pair. It is built
// lazily on the first sliced compile, and UpdateKB builds the incoming
// KB's index once for all its re-slices and installs it at the swap.

// hwStats are the engine-lifetime hardware-index counters that
// CacheStats reports. They outlive any one index.
type hwStats struct {
	builds          atomic.Int64
	skylineHits     atomic.Int64
	skylineComputed atomic.Int64
}

// hwIndex is the per-KB hardware index plus the memos that share work
// and memory between the KB's slices.
type hwIndex struct {
	k     *kb.KB
	gen   uint64
	stats *hwStats

	once   sync.Once
	seed   maphash.Seed
	byName []nameKey // SKU name hashes with catalog indices, sorted
	kinds  map[kb.HardwareKind]*kindIndex

	// skylines: skyline key → surviving non-mandatory catalog indices.
	// subs: slice id → sub-KB; equal ids name equal systems, SKUs and
	// rules, so their sub-KBs are identical. cones: kept-system and
	// kept-rule bitmaps → a KB holding just those systems and rules,
	// shared by the sub-KBs of slices that differ only in hardware.
	skylines boundedMemo[[]int32]
	subs     boundedMemo[*kb.KB]
	cones    boundedMemo[*kb.KB]
}

// boundedMemo is a string-keyed memo that resets wholesale when it
// reaches sliceMemoCap entries.
type boundedMemo[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// get returns the memoized value for key, computing it off-lock on a
// miss. Computations are deterministic, so a racing duplicate is only
// redundant work; the first stored value wins. hit reports a memo hit.
func (b *boundedMemo[V]) get(key string, compute func() V) (v V, hit bool) {
	b.mu.Lock()
	v, hit = b.m[key]
	b.mu.Unlock()
	if hit {
		return v, true
	}
	v = compute()
	b.mu.Lock()
	defer b.mu.Unlock()
	if prior, ok := b.m[key]; ok {
		return prior, false
	}
	if b.m == nil || len(b.m) >= sliceMemoCap {
		b.m = make(map[string]V)
	}
	b.m[key] = v
	return v, false
}

// reset drops every entry.
func (b *boundedMemo[V]) reset() {
	b.mu.Lock()
	b.m = nil
	b.mu.Unlock()
}

// kindIndex holds one hardware kind's SKUs in pruning order; order and
// class share positions. Quantities are not copied: a memo miss reads
// each SKU's Quant map once, into a dense vector over the kind's axes.
type kindIndex struct {
	order   []int32 // catalog indices, cost ascending, ties in catalog order
	class   []int32 // capability class (distinct capability set) per position
	capBit  map[kb.Capability]int
	words   int      // uint64 words per capability mask
	masks   []uint64 // per class: words mask words
	classes int
	axis    map[kb.Resource]int // quantity axis numbering
	smaller []bool              // per axis: smallerBetterQuant
}

func newHWIndex(k *kb.KB, gen uint64, stats *hwStats) *hwIndex {
	return &hwIndex{k: k, gen: gen, stats: stats}
}

// hwIndexFor returns the index for KB k at generation gen, creating it
// (unbuilt) when the engine holds none for that pair. A query still
// running against an older generation gets a private index, so it can
// never evict the current KB's.
func (e *Engine) hwIndexFor(k *kb.KB, gen uint64) *hwIndex {
	e.hwMu.Lock()
	defer e.hwMu.Unlock()
	x := e.hwIdx
	if x != nil && x.k == k && x.gen == gen {
		return x
	}
	fresh := newHWIndex(k, gen, &e.hwStats)
	if x == nil || x.gen <= gen {
		e.hwIdx = fresh
	}
	return fresh
}

// ready builds the index on first use.
func (x *hwIndex) ready() {
	x.once.Do(x.build)
}

func (x *hwIndex) build() {
	hw := x.k.Hardware
	x.stats.builds.Add(1)
	x.seed = maphash.MakeSeed()
	x.byName = make([]nameKey, len(hw))
	x.kinds = map[kb.HardwareKind]*kindIndex{}
	costs := map[kb.HardwareKind][]costKey{}
	for i := range hw {
		h := &hw[i]
		x.byName[i] = nameKey{maphash.String(x.seed, h.Name), int32(i)}
		ki := x.kinds[h.Kind]
		if ki == nil {
			ki = &kindIndex{capBit: map[kb.Capability]int{}, axis: map[kb.Resource]int{}}
			x.kinds[h.Kind] = ki
		}
		costs[h.Kind] = append(costs[h.Kind], costKey{h.CostUSD, int32(i)})
		for _, c := range h.Caps {
			if _, ok := ki.capBit[c]; !ok {
				ki.capBit[c] = len(ki.capBit)
			}
		}
		for r := range h.Quant {
			if _, ok := ki.axis[r]; !ok {
				ki.axis[r] = len(ki.smaller)
				ki.smaller = append(ki.smaller, smallerBetterQuant(h.Kind, r))
			}
		}
	}
	// Ties break on catalog index: equal costs keep catalog order, and
	// among equal name hashes the first listing comes first.
	slices.SortFunc(x.byName, func(a, b nameKey) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return int(a.i - b.i)
	})
	for kind, ki := range x.kinds {
		order := costs[kind]
		slices.SortFunc(order, func(a, b costKey) int {
			if a.cost != b.cost {
				return cmp.Compare(a.cost, b.cost)
			}
			return int(a.i - b.i)
		})
		ki.words = (len(ki.capBit) + 63) / 64
		ki.order = make([]int32, len(order))
		ki.class = make([]int32, len(order))
		classOf := map[string]int32{}
		mask := make([]uint64, ki.words)
		var buf []byte
		for pos, o := range order {
			ki.order[pos] = o.i
			clear(mask)
			for _, c := range hw[o.i].Caps {
				b := ki.capBit[c]
				mask[b/64] |= 1 << (b % 64)
			}
			buf = appendWords(buf[:0], mask)
			cl, ok := classOf[string(buf)]
			if !ok {
				cl = int32(len(classOf))
				classOf[string(buf)] = cl
				ki.masks = append(ki.masks, mask...)
			}
			ki.class[pos] = cl
		}
		ki.classes = len(classOf)
	}
}

// nameKey and costKey are sort keys: a SKU's name hash or cost, and its
// catalog index.
type nameKey struct {
	hash uint64
	i    int32
}

type costKey struct {
	cost int64
	i    int32
}

// lookup returns the catalog index of the first SKU with the name.
func (x *hwIndex) lookup(name string) (int32, bool) {
	h := maphash.String(x.seed, name)
	p, _ := slices.BinarySearchFunc(x.byName, h, func(k nameKey, h uint64) int {
		return cmp.Compare(k.hash, h)
	})
	for ; p < len(x.byName) && x.byName[p].hash == h; p++ {
		if i := x.byName[p].i; x.k.Hardware[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

func appendWords(b []byte, words []uint64) []byte {
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// skyline returns the catalog indices of the kind's non-mandatory SKUs
// that survive dominance pruning when the slice observes the
// capabilities in obs and mand (sorted catalog indices of the kind's
// mandatory SKUs) are kept regardless. Memoized per (kind, obs, mand).
func (x *hwIndex) skyline(kind kb.HardwareKind, ki *kindIndex, obs []uint64, mand []int32) []int32 {
	key := append([]byte(kind), 0)
	key = appendWords(key, obs)
	for _, i := range mand {
		key = binary.LittleEndian.AppendUint32(key, uint32(i))
	}
	sky, hit := x.skylines.get(string(key), func() []int32 {
		x.stats.skylineComputed.Add(1)
		return ki.computeSkyline(x.k.Hardware, obs, mand)
	})
	if hit {
		x.stats.skylineHits.Add(1)
	}
	return sky
}

// computeSkyline is the dominance scan. Walking SKUs cost-ascending
// (ties in catalog order), a SKU survives unless an already-surviving
// member of its group — SKUs with equal observable capabilities —
// dominates it: no more expensive, and no worse on any resource axis.
// Missing axes read as zero, which matches comparing Quant maps exactly
// because a validated KB has no negative quantities. Mandatory SKUs are
// skipped: kept by the caller, never dominators.
func (ki *kindIndex) computeSkyline(hw []kb.Hardware, obs []uint64, mand []int32) []int32 {
	groupOf := make([]int32, ki.classes)
	groups := map[string]int32{}
	masked := make([]uint64, ki.words)
	var buf []byte
	for c := range groupOf {
		for w := range masked {
			masked[w] = ki.masks[c*ki.words+w] & obs[w]
		}
		buf = appendWords(buf[:0], masked)
		g, ok := groups[string(buf)]
		if !ok {
			g = int32(len(groups))
			groups[string(buf)] = g
		}
		groupOf[c] = g
	}
	na := len(ki.smaller)
	vec := make([]int64, na) // the scanned SKU's quantities
	// Survivors' costs and quantity vectors (na per survivor), and each
	// group's survivors as indices into them.
	var keptCost, keptQ []int64
	kept := make([][]int32, len(groups))
	var sky []int32
	for pos, i := range ki.order {
		if _, isMand := slices.BinarySearch(mand, i); isMand {
			continue
		}
		h := &hw[i]
		clear(vec)
		for r, v := range h.Quant {
			vec[ki.axis[r]] = v
		}
		g := groupOf[ki.class[pos]]
		dominated := false
		for _, s := range kept[g] {
			if keptCost[s] <= h.CostUSD && ki.noWorse(keptQ[int(s)*na:int(s+1)*na], vec) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept[g] = append(kept[g], int32(len(keptCost)))
			keptCost = append(keptCost, h.CostUSD)
			keptQ = append(keptQ, vec...)
			sky = append(sky, i)
		}
	}
	return sky
}

// noWorse reports that quantity vector a is at least as good as b on
// every axis.
func (ki *kindIndex) noWorse(a, b []int64) bool {
	for r, smaller := range ki.smaller {
		if smaller {
			if a[r] > b[r] {
				return false
			}
		} else if a[r] < b[r] {
			return false
		}
	}
	return true
}
