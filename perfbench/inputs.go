package main

// Input generation and ground truth. Every relation comes from the
// --seed argument through this file's own generators, and the expected
// join output is derived here from the generated keys alone, so a
// defect in the program's workload package or join code cannot make
// the benchmark agree with itself.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"hashjoin"
	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/storage"
)

const pageSize = 8 << 10 // the public Relation's slotted page size

// relSpec describes one build/probe pair.
type relSpec struct {
	nBuild, nProbe, tuple int

	// matches > 0 selects the paper's pivot shape: nBuild distinct build
	// keys, each matched by exactly matches probe tuples.
	matches int

	// zipfS > 0 instead draws build keys from a Zipf(zipfS) rank
	// distribution over zipfKeys distinct keys; probe keys are uniform
	// over the same keys.
	zipfS    float64
	zipfKeys int
}

// group is one expected aggregation row: COUNT(*) and SUM of the build
// payload's leading uint32 over the join rows of one build key.
type group struct {
	key        uint32
	count, sum uint64
}

// inputs holds one generated pair in append order plus its ground truth.
type inputs struct {
	spec      relSpec
	buildKeys []uint32
	buildVals []uint32 // leading payload uint32 of each build tuple
	probeKeys []uint32

	rows   int    // expected inner-join output rows
	keySum uint64 // expected sum of the build key over output rows
	groups []group
}

// keyMap is a bijection on uint32 (odd multiplier), so distinct indexes
// give distinct keys without a membership set.
type keyMap struct{ mul, add uint32 }

func (m keyMap) key(i int) uint32 { return uint32(i)*m.mul + m.add }

func generate(spec relSpec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		spec:      spec,
		buildKeys: make([]uint32, spec.nBuild),
		buildVals: make([]uint32, spec.nBuild),
		probeKeys: make([]uint32, 0, spec.nProbe),
	}
	for i := range in.buildVals {
		in.buildVals[i] = rng.Uint32() >> 8
	}
	if spec.zipfS > 0 {
		// Which keys are hot decides which partitions overflow the budget,
		// so the rank-to-key map is fixed and the seed only draws the
		// ranks: every seed then spills the same hot keys.
		in.zipf(rng, keyMap{mul: 2654435761, add: 0x9E3779B9})
	} else {
		in.pivot(rng, keyMap{mul: rng.Uint32() | 1, add: rng.Uint32()})
	}
	return in
}

// pivot: build keys are a shuffled run of distinct keys; each appears
// spec.matches times in the shuffled probe relation.
func (in *inputs) pivot(rng *rand.Rand, km keyMap) {
	for j, i := range rng.Perm(in.spec.nBuild) {
		in.buildKeys[j] = km.key(i)
	}
	for m := 0; m < in.spec.matches; m++ {
		in.probeKeys = append(in.probeKeys, in.buildKeys...)
	}
	rng.Shuffle(len(in.probeKeys), func(i, j int) {
		in.probeKeys[i], in.probeKeys[j] = in.probeKeys[j], in.probeKeys[i]
	})
	m := uint64(in.spec.matches)
	in.rows = len(in.probeKeys)
	in.groups = make([]group, in.spec.nBuild)
	for i, k := range in.buildKeys {
		in.keySum += m * uint64(k)
		in.groups[i] = group{key: k, count: m, sum: m * uint64(in.buildVals[i])}
	}
	sort.Slice(in.groups, func(i, j int) bool { return in.groups[i].key < in.groups[j].key })
}

// zipf: build ranks are drawn by inverse CDF over 1/(rank+1)^s, probe
// ranks uniformly. Ground truth comes from the build rank histogram.
func (in *inputs) zipf(rng *rand.Rand, km keyMap) {
	n := in.spec.zipfKeys
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += math.Pow(float64(r+1), -in.spec.zipfS)
		cum[r] = total
	}
	count := make([]uint64, n)
	vals := make([]uint64, n) // summed build payload values per rank
	for i := range in.buildKeys {
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		if r == n {
			r = n - 1
		}
		count[r]++
		vals[r] += uint64(in.buildVals[i])
		in.buildKeys[i] = km.key(r)
	}
	probes := make([]uint64, n)
	for i := 0; i < in.spec.nProbe; i++ {
		r := rng.Intn(n)
		probes[r]++
		in.probeKeys = append(in.probeKeys, km.key(r))
		in.rows += int(count[r])
		in.keySum += count[r] * uint64(km.key(r))
	}
	// A key's group holds every build tuple of the key joined with every
	// probe tuple of it.
	for r := range count {
		if count[r] > 0 && probes[r] > 0 {
			in.groups = append(in.groups, group{key: km.key(r), count: count[r] * probes[r], sum: probes[r] * vals[r]})
		}
	}
	sort.Slice(in.groups, func(i, j int) bool { return in.groups[i].key < in.groups[j].key })
}

// fill writes tuple i of a relation: key, the payload's leading value,
// then a key-derived byte pattern.
func fill(tup []byte, key, val uint32) {
	binary.LittleEndian.PutUint32(tup, key)
	binary.LittleEndian.PutUint32(tup[4:], val)
	for i := 8; i < len(tup); i++ {
		tup[i] = byte(key >> (8 * (i % 4)))
	}
}

// relBytes is the slotted-page footprint of n tuples of width w.
func relBytes(n, w int) uint64 {
	per := storage.CapacityFor(pageSize, w)
	return uint64((n+per-1)/per) * pageSize
}

// load appends the pair to two public relations of env.
func (in *inputs) load(env *hashjoin.Env) (build, probe *hashjoin.Relation) {
	build, probe = env.NewRelation(in.spec.tuple), env.NewRelation(in.spec.tuple)
	tup := make([]byte, in.spec.tuple)
	for i, k := range in.buildKeys {
		fill(tup, k, in.buildVals[i])
		build.Append(k, tup[4:])
	}
	for i, k := range in.probeKeys {
		fill(tup, k, uint32(i))
		probe.Append(k, tup[4:])
	}
	return build, probe
}

// loadInternal appends the same tuples to storage relations in a, for
// the traced run's direct calls into the native and engine layers.
func (in *inputs) loadInternal(a *arena.Arena) (build, probe *storage.Relation) {
	schema := storage.KeyPayloadSchema(in.spec.tuple)
	build, probe = storage.NewRelation(a, schema, pageSize), storage.NewRelation(a, schema, pageSize)
	tup := make([]byte, in.spec.tuple)
	for i, k := range in.buildKeys {
		fill(tup, k, in.buildVals[i])
		build.Append(tup, hash.CodeU32(k))
	}
	for i, k := range in.probeKeys {
		fill(tup, k, uint32(i))
		probe.Append(tup, hash.CodeU32(k))
	}
	return build, probe
}
