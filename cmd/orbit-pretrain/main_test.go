package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: the defaults and every "off" zero pass; a negative
// count or deadline, a run without steps or nodes, -max-rollbacks
// below 1 and a compute scale the shape cannot apply are refused with
// an error naming the flag.
func TestCheckFlags(t *testing.T) {
	def := limits{steps: 100, nodes: 2, maxRollbacks: 2, computeScale: 1e-3}
	for _, tc := range []struct {
		set  func(*limits)
		flag string // "" = accepted
	}{
		{func(*limits) {}, ""},
		{func(l *limits) { l.steps, l.nodes, l.maxRollbacks, l.computeScale = 1, 1, 1, 1 }, ""},
		{func(l *limits) { l.ckptEvery, l.keep, l.killStep, l.killNodeStep, l.stallNodeStep = 4, 3, 5, 6, 7 }, ""},
		{func(l *limits) { l.stepDeadline = 500 * time.Millisecond }, ""},
		{func(l *limits) { l.ckptEvery = -1 }, "-ckpt-every"},
		{func(l *limits) { l.keep = -2 }, "-keep"},
		{func(l *limits) { l.killStep = -1 }, "-kill-step"},
		{func(l *limits) { l.killNodeStep = -12 }, "-kill-node-step"},
		{func(l *limits) { l.stallNodeStep = -1 }, "-stall-node-step"},
		{func(l *limits) { l.stepDeadline = -time.Second }, "-step-deadline"},
		{func(l *limits) { l.steps = 0 }, "-steps"},
		{func(l *limits) { l.steps = -5 }, "-steps"},
		{func(l *limits) { l.nodes = 0 }, "-nodes"},
		{func(l *limits) { l.maxRollbacks = 0 }, "-max-rollbacks"},
		{func(l *limits) { l.maxRollbacks = -1 }, "-max-rollbacks"},
		{func(l *limits) { l.computeScale = 0 }, "-compute-scale"},
		{func(l *limits) { l.computeScale = -1 }, "-compute-scale"},
		{func(l *limits) { l.computeScale = math.NaN() }, "-compute-scale"},
		{func(l *limits) { l.computeScale = math.Inf(1) }, "-compute-scale"},
	} {
		l := def
		tc.set(&l)
		err := checkFlags(l)
		if tc.flag == "" && err != nil {
			t.Errorf("%+v: %v", l, err)
		}
		if tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")) {
			t.Errorf("%+v: error %v, want one naming %s", l, err, tc.flag)
		}
	}
}
