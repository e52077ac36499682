package cpu_test

import (
	"testing"

	"twindrivers/internal/cpu"
	"twindrivers/internal/drivermodel"
	_ "twindrivers/internal/e1000"
	"twindrivers/internal/kernel"
	_ "twindrivers/internal/mqnic"
	"twindrivers/internal/rewrite"
	_ "twindrivers/internal/rtl8139"
)

// TestLockStepDrivers is part (iii) of the oracle: every function of the
// original and of the rewritten unit of all three drivers, engine against
// reference model, under a 5 000-instruction budget.
func TestLockStepDrivers(t *testing.T) {
	models := drivermodel.All()
	if len(models) != 3 {
		t.Fatalf("%d driver models registered, want 3", len(models))
	}
	for _, m := range models {
		original, err := m.Assemble(kernel.Equates())
		if err != nil {
			t.Fatal(err)
		}
		rewritten, _, err := rewrite.Rewrite(original, rewrite.Options{RejectPrivileged: true})
		if err != nil {
			t.Fatal(err)
		}
		n := cpu.LockStepFunctions(t, original, 5000)
		r := cpu.LockStepFunctions(t, rewritten, 5000)
		t.Logf("%s: %d functions, %d instructions in lock step original, %d rewritten", m.Name, len(original.Funcs), n, r)
	}
}
