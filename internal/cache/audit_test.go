package cache

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the snapshotted
// structs so a new field cannot silently escape
// Snapshot/Restore/Reset or the journal-arming access paths (see
// package audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Line{}, map[string]string{
		"Tag":     "state: copied wholesale by the line slab copy and the undo journal",
		"Valid":   "state: via line slab copy / journal",
		"State":   "state: via line slab copy / journal",
		"Data":    "state: slab-aliased bytes, copied via the data slab / journal copies",
		"Dirty":   "state: slab-aliased flags, copied via the dirty slab / journal copies",
		"lastUse": "state: via line slab copy / journal",
		"epoch":   "snapshot bookkeeping: journaled-this-epoch marker, reset on re-arm",
	})
	audit.Fields(t, Array{}, map[string]string{
		"cfg":      "config: fixed at construction",
		"sets":     "config: views into the slabs, survive Reset/Restore",
		"useClock": "state: Reset zeroes, Snapshot/Restore copy",
		"lines":    "state slab: Snapshot/Restore copy wholesale, journal copies per line",
		"data":     "state slab: via slab/journal copies",
		"dirty":    "state slab: via slab/journal copies",
		"lookups":  "stats: ResetStats zeroes, Snapshot/Restore copy",
		"hits":     "stats: ResetStats zeroes, Snapshot/Restore copy",
		"snap":     "snapshot bookkeeping: armed snapshot, Reset disarms",
		"epoch":    "snapshot bookkeeping: arming generation",
		"journal":  "snapshot bookkeeping: undo log since arming",
		"free":     "snapshot bookkeeping: released snapshots whose slabs Snapshot refills; holds no array state",
	})
}
