package memctrl

import (
	"math/rand"
	"testing"

	"heteromem/internal/core"
)

// TestShadowIntegrity is the strongest end-to-end correctness check of the
// migration machinery: a shadow map tracks which physical page's data each
// machine sub-block currently holds (updated by observing the controller's
// copy legs through the migrator's own step reporting), and every program
// access must translate to a machine location that holds its page's data —
// including mid-swap and mid-live-fill, which is exactly the guarantee the
// paper's P/F bits exist to provide.
func TestShadowIntegrity(t *testing.T) {
	for _, design := range []core.Design{core.DesignN, core.DesignN1, core.DesignLive} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Migration = &core.Options{Design: design, SwapInterval: 300}
			ctrl, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			mig := ctrl.Migrator()
			pageSize := cfg.Geometry.MacroPageSize
			subSize := cfg.Geometry.SubBlockSize

			// shadow[machine sub-block] = physical page whose data is there.
			shadow := map[uint64]uint64{}
			totalPages := cfg.Geometry.TotalPages()
			subsPerPage := pageSize / subSize
			for p := uint64(0); p < totalPages; p++ {
				for sb := uint64(0); sb < subsPerPage; sb++ {
					shadow[p*subsPerPage+sb] = p
				}
			}
			if er := mig.Table().EmptyRow(); er >= 0 {
				// The sacrificed slot's page starts parked in Ω.
				omega := mig.Table().Omega()
				for sb := uint64(0); sb < subsPerPage; sb++ {
					shadow[omega*subsPerPage+sb] = uint64(er)
				}
			}

			// Track copy legs: memctrl reports sub-block completion to the
			// migrator, but for the shadow we intercept at the plan level by
			// replaying SubCopy legs as they are issued. We hook the same
			// data the controller uses: each completed write leg's SubCopy.
			ctrl.onCopyDone = func(sc core.SubCopy) {
				src := sc.Src / subSize
				dst := sc.Dst / subSize
				pg, ok := shadow[src]
				if !ok {
					t.Fatalf("%v: copy reads machine sub %#x holding nothing", design, sc.Src)
				}
				if sc.Exchange {
					shadow[src], shadow[dst] = shadow[dst], pg
				} else {
					shadow[dst] = pg
				}
			}

			rng := rand.New(rand.NewSource(99))
			now := int64(0)
			footprint := cfg.Geometry.TotalCapacity
			for i := 0; i < 60000; i++ {
				now += 40
				// Skew accesses so swaps keep happening.
				var a uint64
				if rng.Intn(10) < 7 {
					hotPage := uint64(rng.Intn(8)) + 40
					a = hotPage*pageSize + uint64(rng.Int63n(int64(pageSize)))&^63
				} else {
					a = uint64(rng.Int63n(int64(footprint))) &^ 63
				}

				machine, _ := mig.Translate(a)
				page := a / pageSize
				sub := machine / subSize
				if got, ok := shadow[sub]; !ok || got != page {
					t.Fatalf("%v: access %d: page %d routed to machine %#x which holds page %d (ok=%v)",
						design, i, page, machine, got, ok)
				}
				if err := ctrl.Access(a, rng.Intn(3) == 0, now); err != nil {
					t.Fatal(err)
				}
			}
			ctrl.Flush()
			if report(ctrl).Migration.SwapsCompleted == 0 {
				t.Fatalf("%v: test exercised no swaps", design)
			}
		})
	}
}
