use crate::{Grid3, Wavefronts};

#[test]
fn indexing_round_trips() {
    let g = Grid3::new(5, 4, 3);
    assert_eq!(g.cells(), 60);
    assert_eq!(g.unknowns(), 60);
    for (cell, i, j, k) in g.iter_cells() {
        assert_eq!(g.cell(i, j, k), cell);
        assert_eq!(g.coords(cell), (i, j, k));
    }
}

#[test]
fn iter_cells_is_index_order() {
    let g = Grid3::new(3, 2, 2);
    let cells: Vec<usize> = g.iter_cells().map(|(c, ..)| c).collect();
    assert_eq!(cells, (0..12).collect::<Vec<_>>());
}

#[test]
fn unknown_indexing_with_components() {
    let g = Grid3::with_components(4, 4, 4, 3);
    assert_eq!(g.unknowns(), 192);
    assert_eq!(g.unknown(0, 0, 0, 0), 0);
    // Component-major: a vector is `components` contiguous fields.
    assert_eq!(g.unknown(1, 0, 0, 0), 1);
    assert_eq!(g.unknown(0, 0, 0, 2), 128);
    assert_eq!(g.unknown(1, 2, 3, 1), 64 + g.cell(1, 2, 3));
    assert_eq!(g.unknown_of(g.cell(1, 2, 3), 1), g.unknown(1, 2, 3, 1));
    assert_eq!(g.field(1), 64..128);
}

#[test]
fn stride_matches_indexing() {
    let g = Grid3::new(7, 5, 3);
    let (i, j, k) = (3, 2, 1);
    let base = g.cell(i, j, k) as i64;
    for (dx, dy, dz) in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (1, -1, 1)] {
        assert!(g.contains_offset(i, j, k, dx, dy, dz));
        let target = g.cell(
            (i as i64 + dx as i64) as usize,
            (j as i64 + dy as i64) as usize,
            (k as i64 + dz as i64) as usize,
        ) as i64;
        assert_eq!(base + g.stride(dx, dy, dz), target);
    }
}

#[test]
fn neighbour_runs_are_the_cells_contains_offset_accepts() {
    // Every extent against every offset up to two cells, over the whole
    // plane and over ranges that start and end inside a row.
    for g in [Grid3::new(5, 4, 3), Grid3::new(1, 3, 2), Grid3::new(2, 1, 1), Grid3::new(7, 2, 5)] {
        let n = g.cells();
        for (dx, dy, dz) in (0..125).map(|o| (o % 5 - 2, o / 5 % 5 - 2, o / 25 - 2)) {
            for range in [0..n, 0..0, 1..n, 3.min(n)..n - n / 3, n / 2..n / 2 + 1] {
                let want: Vec<usize> = g
                    .iter_cells()
                    .filter(|&(c, i, j, k)| {
                        range.contains(&c) && g.contains_offset(i, j, k, dx, dy, dz)
                    })
                    .map(|(c, ..)| c)
                    .collect();
                let runs: Vec<_> = g.neighbour_runs(range.clone(), dx, dy, dz).collect();
                assert!(runs.iter().all(|r| !r.is_empty() && r.start / g.nx == (r.end - 1) / g.nx));
                let got: Vec<usize> = runs.into_iter().flatten().collect();
                assert_eq!(got, want, "{g:?} offset ({dx}, {dy}, {dz}) range {range:?}");
            }
        }
    }
}

#[test]
fn contains_offset_boundary() {
    let g = Grid3::new(4, 4, 4);
    assert!(!g.contains_offset(0, 0, 0, -1, 0, 0));
    assert!(!g.contains_offset(3, 0, 0, 1, 0, 0));
    assert!(!g.contains_offset(0, 3, 3, 0, 1, 0));
    assert!(!g.contains_offset(0, 0, 3, 0, 0, 1));
    assert!(g.contains_offset(3, 3, 3, -1, -1, -1));
    assert!(g.contains_offset(0, 0, 0, 1, 1, 1));
}

#[test]
fn coarsening_rounds_up() {
    let g = Grid3::new(9, 8, 7);
    let c = g.coarsen();
    assert_eq!((c.nx, c.ny, c.nz), (5, 4, 4));
    let c2 = c.coarsen();
    assert_eq!((c2.nx, c2.ny, c2.nz), (3, 2, 2));
    // Components survive coarsening.
    let gv = Grid3::with_components(8, 8, 8, 4).coarsen();
    assert_eq!(gv.components, 4);
    // A 1-cell grid coarsens to itself and is coarsest.
    let tiny = Grid3::new(1, 1, 1);
    assert_eq!(tiny.coarsen(), tiny);
    assert!(tiny.is_coarsest(0));
    assert!(Grid3::cube(2).is_coarsest(100));
    assert!(!Grid3::cube(16).is_coarsest(100));
}

#[test]
fn z_slabs_cover_and_balance() {
    let g = Grid3::new(4, 4, 10);
    for parts in [1, 2, 3, 4, 10, 20] {
        let slabs = g.z_slabs(parts);
        assert!(slabs.len() <= parts.max(1));
        let mut next = 0;
        for s in &slabs {
            assert_eq!(s.start, next);
            next = s.end;
            assert!(!s.is_empty());
        }
        assert_eq!(next, 10);
        let min = slabs.iter().map(|s| s.len()).min().unwrap();
        let max = slabs.iter().map(|s| s.len()).max().unwrap();
        assert!(max - min <= 1, "slabs unbalanced: {slabs:?}");
    }
}

#[test]
fn wavefronts_cover_every_cell_once() {
    let g = Grid3::new(5, 4, 3);
    let w = Wavefronts::build(&g);
    assert_eq!(w.len(), g.cells());
    assert_eq!(w.num_planes(), 5 + 4 + 3 - 2);
    let mut seen = vec![false; g.cells()];
    for plane in w.forward() {
        for &c in plane {
            assert!(!seen[c as usize], "cell {c} scheduled twice");
            seen[c as usize] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn wavefront_planes_are_independent() {
    // Within a plane, no cell may be reachable from another via a
    // radius-1 lower-triangular tap.
    let g = Grid3::new(4, 4, 4);
    let w = Wavefronts::build(&g);
    for p in 0..w.num_planes() {
        let plane = w.plane(p);
        for &c in plane {
            let (i, j, k) = g.coords(c as usize);
            assert_eq!(i + j + k, p, "cell in wrong plane");
        }
    }
}

#[test]
fn wavefront_respects_dependencies() {
    // Every lower neighbor (dx+dy+dz < 0 with radius-1 taps of a 7-point
    // stencil) of a plane-p cell lives in an earlier plane.
    let g = Grid3::new(6, 5, 4);
    let w = Wavefronts::build(&g);
    let mut plane_of = vec![0usize; g.cells()];
    for p in 0..w.num_planes() {
        for &c in w.plane(p) {
            plane_of[c as usize] = p;
        }
    }
    for (cell, i, j, k) in g.iter_cells() {
        for (dx, dy, dz) in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)] {
            if g.contains_offset(i, j, k, dx, dy, dz) {
                let nb = (cell as i64 + g.stride(dx, dy, dz)) as usize;
                assert!(plane_of[nb] < plane_of[cell]);
            }
        }
    }
}

#[test]
fn backward_is_reverse_of_forward() {
    let g = Grid3::new(3, 3, 3);
    let w = Wavefronts::build(&g);
    let fwd: Vec<&[u32]> = w.forward().collect();
    let mut bwd: Vec<&[u32]> = w.backward().collect();
    bwd.reverse();
    assert_eq!(fwd, bwd);
}

#[test]
#[should_panic(expected = "positive")]
fn zero_extent_panics() {
    Grid3::new(0, 4, 4);
}

#[test]
fn semicoarsening_axes() {
    let g = Grid3::new(9, 8, 7);
    assert_eq!(g.coarsen_axes((true, true, true)), g.coarsen());
    let cz = g.coarsen_axes((false, false, true));
    assert_eq!((cz.nx, cz.ny, cz.nz), (9, 8, 4));
    let cxy = g.coarsen_axes((true, true, false));
    assert_eq!((cxy.nx, cxy.ny, cxy.nz), (5, 4, 7));
    // No-axis coarsening is the identity.
    assert_eq!(g.coarsen_axes((false, false, false)), g);
    // Components survive.
    let gv = Grid3::with_components(8, 8, 8, 3).coarsen_axes((false, true, false));
    assert_eq!(gv.components, 3);
    assert_eq!((gv.nx, gv.ny, gv.nz), (8, 4, 8));
}

mod decomp_tests {
    use crate::decomp::{vcycle_halo_bytes, Decomposition};
    use crate::Grid3;

    #[test]
    fn decomposition_covers_grid_exactly() {
        let g = Grid3::new(17, 13, 9);
        for np in [1usize, 2, 3, 4, 6, 8, 12, 16] {
            let d = Decomposition::new(g, np);
            assert_eq!(d.num_ranks(), np.min(d.num_ranks()));
            let total: usize = d.boxes().iter().map(|b| b.cells()).sum();
            assert_eq!(total, g.cells(), "np={np}");
            assert!(d.imbalance() < 2.0, "np={np}: {}", d.imbalance());
        }
    }

    #[test]
    fn near_cubic_factorization_preferred() {
        let g = Grid3::cube(64);
        let d = Decomposition::new(g, 8);
        assert_eq!(d.procs(), (2, 2, 2), "8 ranks on a cube should be 2x2x2");
        let d = Decomposition::new(g, 64);
        assert_eq!(d.procs(), (4, 4, 4));
    }

    #[test]
    fn halo_cells_scale_with_surface() {
        let g = Grid3::cube(32);
        let d1 = Decomposition::new(g, 1);
        // A single rank owning everything has no halo.
        assert_eq!(d1.halo_cells_per_sweep(1), 0);
        let d8 = Decomposition::new(g, 8);
        // 2x2x2 boxes of 16^3: each has 3 interior faces exposed; halo
        // shell > 3*16*16 per box.
        let per_rank = d8.halo_cells_per_sweep(1) / 8;
        assert!(per_rank >= 3 * 16 * 16, "{per_rank}");
        // More ranks, more surface.
        let d64 = Decomposition::new(g, 64);
        assert!(d64.halo_cells_per_sweep(1) > d8.halo_cells_per_sweep(1));
    }

    #[test]
    fn halo_bytes_track_components_and_precision() {
        let g = Grid3::with_components(16, 16, 16, 3);
        let d = Decomposition::new(g, 8);
        let b4 = d.halo_bytes_per_sweep(1, 4);
        let b8 = d.halo_bytes_per_sweep(1, 8);
        assert_eq!(2 * b4, b8);
        let gs = Grid3::new(16, 16, 16);
        let ds = Decomposition::new(gs, 8);
        assert_eq!(ds.halo_bytes_per_sweep(1, 4) * 3, b4);
    }

    #[test]
    fn vcycle_halo_dominated_by_finest_level() {
        let bytes = vcycle_halo_bytes(&Grid3::cube(64), 8, 5, 4);
        assert_eq!(bytes.len(), 5);
        // Finest-level halo dominates but coarse levels' shrink slower
        // than their volume (surface-to-volume grows) — the Fig. 10
        // communication-dominance effect.
        assert!(bytes[0].1 > bytes[1].1);
        let vol_ratio = 8.0; // volume shrinks 8x per level
        let halo_ratio = bytes[0].1 as f64 / bytes[1].1 as f64;
        assert!(
            halo_ratio < vol_ratio,
            "halo shrinks slower than volume: {halo_ratio} vs {vol_ratio}"
        );
    }
}
