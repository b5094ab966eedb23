package fem

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// ConductivityFromLabels maps a mesh's per-cell tissue labels to the
// per-cell conductivity vector Problem.Conductivity expects: cells
// whose label has an entry in byLabel get that value, everything else
// gets def. This is the bridge from an image-to-mesh snapshot (whose
// cells carry the tissue label at their circumcenter) to a
// multi-tissue simulation — the patient-specific workload the source
// paper meshes for.
//
// Every conductivity must be positive and finite: a zero or negative
// k produces a stiffness matrix that is not positive definite, which
// CG cannot solve (and a server must reject before assembling).
func ConductivityFromLabels(m *core.MeshSnapshot, byLabel map[int]float64, def float64) ([]float64, error) {
	if def == 0 {
		def = 1
	}
	if err := checkConductivity("default", def); err != nil {
		return nil, err
	}
	for l, k := range byLabel {
		if err := checkConductivity(fmt.Sprintf("label %d", l), k); err != nil {
			return nil, err
		}
	}
	if len(byLabel) == 0 && def == 1 {
		return nil, nil // homogeneous unit conductivity: Assemble's nil fast path
	}
	out := make([]float64, len(m.Cells))
	if len(m.Labels) == len(m.Cells) {
		for i, l := range m.Labels {
			if k, ok := byLabel[int(l)]; ok {
				out[i] = k
			} else {
				out[i] = def
			}
		}
	} else {
		for i := range out {
			out[i] = def
		}
	}
	return out, nil
}

func checkConductivity(what string, k float64) error {
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("fem: conductivity for %s is %g (want a positive finite number)", what, k)
	}
	return nil
}
