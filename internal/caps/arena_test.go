package caps_test

import (
	"testing"

	"redcane/internal/axe"
	"redcane/internal/caps"
	"redcane/internal/models"
	"redcane/internal/noise"
	"redcane/internal/tensor"
)

// TestArenaBoundedAcrossPasses runs ten classification passes through
// one arena. Every buffer a pass takes is lent and released within it,
// so from the second pass on the free lists hold exactly one pass's
// worth of buffers, and nothing the layers release is foreign to the
// arena. An arena that kept every released tensor — layer outputs from
// New, squash results — would grow with each pass.
func TestArenaBoundedAcrossPasses(t *testing.T) {
	specs := []models.Spec{
		models.CapsNet([]int{1, 28, 28}, 10),
		models.DeepCaps([]int{3, 16, 16}, 10),
	}
	backends := []caps.Backend{caps.Float{}, axe.QuantExact{Bits: 8}}
	for _, spec := range specs {
		net, err := models.BuildInference(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		shape := append([]int{4}, spec.InputShape...)
		x := tensor.New(shape...).FillUniform(tensor.NewRNG(9), 0, 1)
		for _, be := range backends {
			s := tensor.NewScratch()
			var second tensor.ScratchStats
			for pass := 1; pass <= 10; pass++ {
				net.ClassifyFromExec(0, x, noise.None{}, s, be)
				if pass == 2 {
					second = s.Stats()
				}
			}
			last := s.Stats()
			if last.FreeBytes != second.FreeBytes || last.AllocBytes != second.AllocBytes {
				t.Errorf("%s/%s: free-list bytes %d → %d, arena growth %d → %d between passes 2 and 10",
					spec.Name, be.Name(), second.FreeBytes, last.FreeBytes, second.AllocBytes, last.AllocBytes)
			}
			if last.Dropped != 0 {
				t.Errorf("%s/%s: %d releases of buffers the arena never lent", spec.Name, be.Name(), last.Dropped)
			}
			if last.FreeBytes == 0 || last.Reuses == 0 {
				t.Errorf("%s/%s: arena never recycled (stats %+v)", spec.Name, be.Name(), last)
			}
		}
	}
}
