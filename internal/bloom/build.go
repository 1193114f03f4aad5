package bloom

import "sync"

// buildBatch is how many keys BuildBlocked hashes into scratch before it
// sets any of their bits.
const buildBatch = 256

// maxBuildWorkers caps BuildBlocked's workers. Every worker past the first
// fills a private array as large as the filter, and the arrays are OR-ed
// together on one goroutine, so more workers cost memory linearly and a
// longer serial merge; two is the count the build was measured at.
const maxBuildWorkers = 2

// BuildBlocked returns the register-blocked filter NewBlocked(len(keys), p)
// holding every key of keys — bit for bit the filter a loop of Add or
// AddUint64 over keys builds. hash is the key kind's hash pair (HashUint64
// or HashString).
//
// A per-key loop interleaves each key's hashing with its block's cache
// miss, so the core's reorder window holds only a few misses at a time.
// Here each batch of keys is hashed into (block, h2) scratch first, so the
// bit-setting loop that follows is a run of independent misses the core
// can overlap. With workers > 1 (at most maxBuildWorkers, whatever is
// asked) the second worker fills a private bit array over its half of the
// keys, and that array is OR-ed into the filter's: bits only ever get set,
// so the union is the sequential result whatever the split. The build's
// extra memory is thus at most one filter-sized array.
func BuildBlocked[K any](keys []K, p float64, hash func(K) (h1, h2 uint64), workers int) *Filter {
	f := NewBlocked(len(keys), p)
	f.n = len(keys)
	workers = min(workers, maxBuildWorkers, (len(keys)+buildBatch-1)/buildBatch)
	if workers <= 1 {
		fillBlocked(f, f.bits, keys, hash)
		return f
	}
	parts := make([][]uint64, workers)
	parts[0] = f.bits
	var wg sync.WaitGroup
	for w := range parts {
		chunk := keys[w*len(keys)/workers : (w+1)*len(keys)/workers]
		if w > 0 {
			parts[w] = make([]uint64, len(f.bits))
		}
		wg.Add(1)
		go func(bits []uint64) {
			defer wg.Done()
			fillBlocked(f, bits, chunk, hash)
		}(parts[w])
	}
	wg.Wait()
	for _, part := range parts[1:] {
		for i, word := range part {
			f.bits[i] |= word
		}
	}
	return f
}

// fillBlocked sets the bits of every key of keys in bits, an array of f's
// shape, a batch at a time.
func fillBlocked[K any](f *Filter, bits []uint64, keys []K, hash func(K) (h1, h2 uint64)) {
	var base, h2s [buildBatch]uint64
	for lo := 0; lo < len(keys); lo += buildBatch {
		batch := keys[lo:min(lo+buildBatch, len(keys))]
		for i, k := range batch {
			h1, h2 := hash(k)
			base[i], h2s[i] = f.blockBase(h1), h2
		}
		for i := range batch {
			setBlock(bits, base[i], h2s[i], f.k)
		}
	}
}
