package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckAutoFlags: -auto refuses a cluster without nodes, a workload
// without samples and a compute scale the shape cannot apply, naming
// the flag; the defaults and any finite positive scale pass.
func TestCheckAutoFlags(t *testing.T) {
	for _, tc := range []struct {
		nodes, batch int
		scale        float64
		flag         string // "" = accepted
	}{
		{2, 64, 1e-3, ""},
		{1, 1, 1, ""},
		{8, 64, 2.5, ""},
		{0, 64, 1e-3, "-nodes"},
		{-1, 64, 1e-3, "-nodes"},
		{2, 0, 1e-3, "-global-batch"},
		{2, -8, 1e-3, "-global-batch"},
		{2, 64, 0, "-compute-scale"},
		{2, 64, -1, "-compute-scale"},
		{2, 64, math.NaN(), "-compute-scale"},
		{2, 64, math.Inf(1), "-compute-scale"},
	} {
		err := checkAutoFlags(tc.nodes, tc.batch, tc.scale)
		if tc.flag == "" && err != nil {
			t.Errorf("nodes %d, batch %d, scale %g: %v", tc.nodes, tc.batch, tc.scale, err)
		}
		if tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")) {
			t.Errorf("nodes %d, batch %d, scale %g: error %v, want one naming %s", tc.nodes, tc.batch, tc.scale, err, tc.flag)
		}
	}
}
