package main

import "testing"

// TestDigestFollowsSeed pins the bit-identity digest: the same seed must
// reproduce every virtual-clock result exactly, and another seed must feed
// the program different inputs.
func TestDigestFollowsSeed(t *testing.T) {
	ref := newReference()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, seed := range []uint64{1, 1, 2} {
				r, err := runRep(w, seed, plain, ref)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.checks) > 0 {
					t.Fatalf("seed %d: %v", seed, r.checks)
				}
				digests = append(digests, r.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("seed 1 gave digests %s and %s", digests[0], digests[1])
			}
			if digests[0] == digests[2] {
				t.Errorf("seeds 1 and 2 share digest %s", digests[0])
			}
		})
	}
}
