// Package metrics implements the evaluation measures of the ORBIT
// paper: latitude-weighted mean squared error (wMSE, the pre-training
// loss), latitude-weighted RMSE, and the latitude-weighted Anomaly
// Correlation Coefficient (wACC) used to score fine-tuned forecasts
// against climatology (paper Sec. IV, "Performance Metrics").
package metrics

import (
	"fmt"
	"math"
	"sync"

	"orbit/internal/tensor"
)

// latWeightCache memoizes LatitudeWeights per row count: the training
// loss recomputes the same weights every step, and the cosine loop
// showed up in step profiles. Entries are immutable once stored.
var latWeightCache sync.Map // int -> []float64

// LatitudeWeights returns the per-row weights w(φ) = cos φ / mean(cos)
// for an equiangular grid with `rows` latitudes spanning pole to pole.
// Grid cells shrink towards the poles; weighting by cos φ removes the
// resulting polar bias. The weights average to exactly 1. The returned
// slice is shared and must not be modified.
func LatitudeWeights(rows int) []float64 {
	if w, ok := latWeightCache.Load(rows); ok {
		return w.([]float64)
	}
	w := make([]float64, rows)
	var sum float64
	for i := 0; i < rows; i++ {
		// Cell-centre latitudes: -90 + (i+0.5)*180/rows degrees.
		lat := (-90 + (float64(i)+0.5)*180/float64(rows)) * math.Pi / 180
		w[i] = math.Cos(lat)
		sum += w[i]
	}
	mean := sum / float64(rows)
	for i := range w {
		w[i] /= mean
	}
	actual, _ := latWeightCache.LoadOrStore(rows, w)
	return actual.([]float64)
}

// WeightedMSE computes the latitude-weighted mean squared error
// between prediction and target fields of shape [C, H, W], and the
// gradient of that loss with respect to the prediction. This is the
// ORBIT pre-training loss.
func WeightedMSE(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	return WeightedMSEInto(tensor.New(pred.Shape()...), pred, target)
}

// WeightedMSEInto is WeightedMSE writing the gradient into a
// caller-owned buffer (the trainer keeps one, via tensor.Ensure), so the
// training loop's per-sample loss evaluation allocates nothing.
func WeightedMSEInto(grad, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("metrics: WeightedMSE shapes %v vs %v", pred.Shape(), target.Shape()))
	}
	if pred.Rank() != 3 {
		panic("metrics: WeightedMSE expects [C, H, W]")
	}
	if !grad.SameShape(pred) {
		panic("metrics: WeightedMSE gradient buffer shape mismatch")
	}
	var loss float64
	c, h, w := pred.Dim(0), pred.Dim(1), pred.Dim(2)
	lat := LatitudeWeights(h)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	n := float64(c * h * w)
	for ci := 0; ci < c; ci++ {
		for hi := 0; hi < h; hi++ {
			lw := lat[hi]
			base := (ci*h + hi) * w
			for wi := 0; wi < w; wi++ {
				d := float64(pd[base+wi]) - float64(td[base+wi])
				loss += lw * d * d
				gd[base+wi] = float32(2 * lw * d / n)
			}
		}
	}
	loss /= n
	return loss, grad
}

// WeightedRMSE computes per-channel latitude-weighted RMSE for fields
// [C, H, W].
func WeightedRMSE(pred, target *tensor.Tensor) []float64 {
	if !pred.SameShape(target) || pred.Rank() != 3 {
		panic("metrics: WeightedRMSE expects matching [C, H, W]")
	}
	c, h, w := pred.Dim(0), pred.Dim(1), pred.Dim(2)
	lat := LatitudeWeights(h)
	out := make([]float64, c)
	pd, td := pred.Data(), target.Data()
	for ci := 0; ci < c; ci++ {
		var s float64
		for hi := 0; hi < h; hi++ {
			base := (ci*h + hi) * w
			for wi := 0; wi < w; wi++ {
				d := float64(pd[base+wi]) - float64(td[base+wi])
				s += lat[hi] * d * d
			}
		}
		out[ci] = math.Sqrt(s / float64(h*w))
	}
	return out
}

// WeightedACC computes the latitude-weighted Anomaly Correlation
// Coefficient per channel: the Pearson correlation of (pred −
// climatology) with (target − climatology), weighted by cos φ. Ranges
// from −1 (anti-correlated) through 0 (no better than climatology) to
// 1 (perfect). All three fields are [C, H, W].
func WeightedACC(pred, target, climatology *tensor.Tensor) []float64 {
	if !pred.SameShape(target) || !pred.SameShape(climatology) || pred.Rank() != 3 {
		panic("metrics: WeightedACC expects three matching [C, H, W] fields")
	}
	c, h, w := pred.Dim(0), pred.Dim(1), pred.Dim(2)
	lat := LatitudeWeights(h)
	out := make([]float64, c)
	pd, td, cd := pred.Data(), target.Data(), climatology.Data()
	for ci := 0; ci < c; ci++ {
		var num, denP, denT float64
		// Weighted means of the anomalies are removed first so this is
		// a true centred correlation.
		var sumWP, sumWT, sumW float64
		for hi := 0; hi < h; hi++ {
			base := (ci*h + hi) * w
			for wi := 0; wi < w; wi++ {
				ap := float64(pd[base+wi]) - float64(cd[base+wi])
				at := float64(td[base+wi]) - float64(cd[base+wi])
				sumWP += lat[hi] * ap
				sumWT += lat[hi] * at
				sumW += lat[hi]
			}
		}
		meanP, meanT := sumWP/sumW, sumWT/sumW
		for hi := 0; hi < h; hi++ {
			base := (ci*h + hi) * w
			for wi := 0; wi < w; wi++ {
				ap := float64(pd[base+wi]) - float64(cd[base+wi]) - meanP
				at := float64(td[base+wi]) - float64(cd[base+wi]) - meanT
				num += lat[hi] * ap * at
				denP += lat[hi] * ap * ap
				denT += lat[hi] * at * at
			}
		}
		den := math.Sqrt(denP * denT)
		if den == 0 {
			out[ci] = 0
			continue
		}
		out[ci] = num / den
	}
	return out
}

// MeanACC averages per-channel wACC values.
func MeanACC(accs []float64) float64 {
	var s float64
	for _, a := range accs {
		s += a
	}
	return s / float64(len(accs))
}
