package pram

// BitonicSort is Batcher's bitonic sorting network as a PRAM program:
// O(log² n) steps of n/2 compare-exchange operations each, Θ(n log² n)
// total work — a third classic of the Θ(n)-processor style the paper
// contrasts with (work-suboptimal by a log² n factor against sequential
// mergesort's Θ(n log n)… per comparator; against the Θ(n log n) total of a
// comparison sort it loses one log factor). n must be a power of two.
//
// Every step's compare-exchanges touch disjoint element pairs, so the
// program is EREW-legal and the Brent emulation applies unchanged.
type BitonicSort struct {
	Input []int64
}

// Memory returns a copy of the input.
func (b BitonicSort) Memory() []int64 { return b.Input }

// Step runs the step'th layer of the network, one compare-exchange per
// pair. Layers are enumerated in the standard (k, j) double loop: k = 2,
// 4, …, n (block size), j = k/2, k/4, …, 1 (partner distance).
func (b BitonicSort) Step(step int, mem []int64) int {
	n := len(b.Input)
	// Decode step → (k, j).
	s := step
	for k := 2; k <= n; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			if s > 0 {
				s--
				continue
			}
			ops := 0
			for i := 0; i < n; i++ {
				partner := i ^ j
				if partner <= i {
					continue // one op per pair
				}
				up := i&k == 0 // ascending block?
				if (mem[i] > mem[partner]) == up {
					mem[i], mem[partner] = mem[partner], mem[i]
				}
				ops++
			}
			return ops
		}
	}
	return 0
}

// Sorted extracts the sorted array from an emulated result.
func (b BitonicSort) Sorted(res Result) []int64 {
	out := make([]int64, len(b.Input))
	copy(out, res.Mem)
	return out
}
