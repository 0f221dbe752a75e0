package sweep

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Shard returns the sub-grid of points owned by shard i of k under the
// deterministic key-hash partition (FNV-1a 64 of the canonical key, mod k):
// k independent invocations of the same grid with shards 0/k … (k-1)/k
// cover every point exactly once, with no coordinator — the one way to
// split a sweep across machines. Points keep their full-grid Index,
// so shard outputs merged with MergeFiles are record-equal to a
// single-process sweep. Shard(points, 0, 1) is the identity.
func Shard(points []Point, i, k int) ([]Point, error) {
	if k < 1 {
		return nil, fmt.Errorf("sweep: shard count %d must be ≥ 1", k)
	}
	if i < 0 || i >= k {
		return nil, fmt.Errorf("sweep: shard index %d out of range [0,%d)", i, k)
	}
	if k == 1 {
		return points, nil
	}
	var out []Point
	for _, pt := range points {
		if shardOf(pt.Key(), k) == i {
			out = append(out, pt)
		}
	}
	return out, nil
}

func shardOf(key string, k int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(k))
}

// ParseShard parses the "i/k" form of cmd/sweep's -shard flag. The empty
// string is the whole grid (0/1).
func ParseShard(s string) (i, k int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("sweep: bad shard %q (want i/k)", s)
	}
	i, err1 := strconv.Atoi(lhs)
	k, err2 := strconv.Atoi(rhs)
	if err1 != nil || err2 != nil || k < 1 || i < 0 || i >= k {
		return 0, 0, fmt.Errorf("sweep: bad shard %q (want 0 ≤ i < k)", s)
	}
	return i, k, nil
}
