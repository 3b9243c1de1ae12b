package verify

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
)

// Hooks for golden_test.go, whose plans come through repro/rapid: an
// import the tests inside the package cannot make.
var Update = update

// Mutations returns, by name, every plan the tests of verify_test.go check.
func Mutations() (names []string, plans []func(t *testing.T) (*sched.Schedule, *mem.Plan)) {
	for _, m := range mutations() {
		names = append(names, m.name)
		plans = append(plans, m.plan)
	}
	return names, plans
}
