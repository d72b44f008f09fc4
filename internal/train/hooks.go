package train

import (
	"errors"

	"orbit/internal/cluster"
	"orbit/internal/pp"
)

// Hooks let a supervisor (internal/guard) observe and steer an elastic
// run without the training loop knowing any supervision policy. All
// hooks are optional; a nil Hooks (or nil field) costs nothing — in
// particular the global gradient norm is only computed when OnStep is
// set.
type Hooks struct {
	// OnBuild fires after the machine and engines are (re)built —
	// including every post-fault rebuild — before any checkpoint load,
	// handing the supervisor the machine to watch and the active 4D
	// layout (the first Ranks() devices are the participating ranks;
	// a job without pipelining reports PP=1).
	OnBuild func(m *cluster.Machine, layout pp.Layout)
	// OnBeat fires from each rank's goroutine at every micro-batch
	// start: a per-rank step heartbeat. Must be cheap and safe to call
	// concurrently.
	OnBeat func(rank, step int)
	// GradHook runs on the host after all ranks finished their
	// forward/backward passes and before gradients are applied, once per
	// rank in rank order. grads are the rank's chunk gradients
	// (Stage.Chunks()[b].Grad), each the step's sum over its
	// micro-batches, and the optimizer applies what they hold: it may
	// mutate them in place — fault-injection tests model silent data
	// corruption of a step's gradients with it. stepSeed is the step's data-stream seed (after
	// any StepSalt), so an injected fault can be made data-dependent.
	GradHook func(step int, stepSeed uint64, rank int, grads [][]float32)
	// OnStep fires once per step with the global-batch mean loss and
	// the global gradient norm, after GradHook but BEFORE the optimizer
	// applies the gradients. Returning an error aborts the run right
	// there: poisoned gradients are never applied, so the weights and
	// any later checkpoint stay clean — which is what makes
	// rollback-free recovery from a transient bad step possible.
	OnStep func(step int, loss, gradNorm float64) error
}

// errPeerAborted is the step error of a rank whose collective was
// poisoned by a failed peer: the rank is collateral, not the root
// cause.
var errPeerAborted = errors.New("train: step aborted after a peer rank failed")

// stepError condenses per-rank step errors into the most informative
// one: a device death is the root cause, any other concrete error
// (OOM, …) comes next, and peer-abort collateral is reported only
// when nothing better exists.
func stepError(errs []error) error {
	for _, err := range errs {
		var dde *cluster.DeadDeviceError
		if errors.As(err, &dde) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errPeerAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
