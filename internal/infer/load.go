package infer

import (
	"fmt"
	"os"

	"orbit/internal/ckpt"
	"orbit/internal/tensor"
	"orbit/internal/vit"
)

// LoadModel loads a full ORBIT model for inference from a checkpoint
// file of any kind: weights-only, quantized, or training-state (the
// optimizer sections are skipped — an inference engine has no use for
// Adam moments).
func LoadModel(path string) (*vit.Model, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		if ckpt.HasManifest(path) {
			return nil, fmt.Errorf("infer: %s holds elastic training state (a sharded transformer stack with no embedding or head), which cannot be served", path)
		}
		return nil, fmt.Errorf("infer: %s is a directory without a checkpoint manifest", path)
	}
	return ckpt.Load(path)
}

// LoadModelQuantized loads a block-quantized (kindQuantWeights)
// checkpoint for inference, returning both the dequantized model and
// the quantized containers keyed by parameter name — pass the map as
// Config.Quant to serve through the dequant-fused kernels without a
// per-worker f32 copy of the matmul weights. Non-quantized checkpoints
// come back as ckpt.ErrNotQuantized, so callers fall back to
// LoadModel (which itself reads quantized files transparently when the
// containers are not wanted).
func LoadModelQuantized(path string) (*vit.Model, map[string]*tensor.Quantized, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if st.IsDir() {
		return nil, nil, fmt.Errorf("infer: %s is a directory, not a quantized checkpoint", path)
	}
	return ckpt.LoadQuantized(path)
}
