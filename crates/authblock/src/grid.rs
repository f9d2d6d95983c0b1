//! Tile grids: the lattice of tiles an accelerator sweeps over a
//! tensor, possibly overlapping (convolution halos, paper §3.2.2).

use crate::lattice::{Region, TileRect};

/// A grid of tiles over a region: `n_rows × n_cols` tiles of nominal
/// extent `tile_h × tile_w`, with origins spaced `step_h`/`step_w`
/// apart. `step < tile` produces overlapping tiles (halos); tiles are
/// clipped at the region edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGrid {
    /// Tiles along the row axis.
    pub n_rows: u64,
    /// Tiles along the column axis.
    pub n_cols: u64,
    /// Nominal tile row extent.
    pub tile_h: u64,
    /// Nominal tile column extent.
    pub tile_w: u64,
    /// Row distance between consecutive tile origins.
    pub step_h: u64,
    /// Column distance between consecutive tile origins.
    pub step_w: u64,
    /// Signed origin shift (convolution padding places the first
    /// window at `-pad`); tiles are clipped to the region.
    pub off_h: i64,
    /// Signed column origin shift.
    pub off_w: i64,
}

impl TileGrid {
    /// A non-overlapping grid that exactly covers `region` with tiles of
    /// the given extent (edge tiles clipped).
    pub fn covering(region: Region, tile_h: u64, tile_w: u64) -> Self {
        assert!(tile_h > 0 && tile_w > 0, "tile extents must be positive");
        TileGrid {
            n_rows: region.h.div_ceil(tile_h),
            n_cols: region.w.div_ceil(tile_w),
            tile_h,
            tile_w,
            step_h: tile_h,
            step_w: tile_w,
            off_h: 0,
            off_w: 0,
        }
    }

    /// An overlapping grid (halo tiles): same construction but with an
    /// explicit step smaller than the tile extent.
    pub fn covering_with_halo(
        region: Region,
        tile_h: u64,
        tile_w: u64,
        step_h: u64,
        step_w: u64,
    ) -> Self {
        assert!(step_h > 0 && step_w > 0, "steps must be positive");
        let span = |extent: u64, tile: u64, step: u64| {
            if extent <= tile {
                1
            } else {
                (extent - tile).div_ceil(step) + 1
            }
        };
        TileGrid {
            n_rows: span(region.h, tile_h, step_h),
            n_cols: span(region.w, tile_w, step_w),
            tile_h,
            tile_w,
            step_h,
            step_w,
            off_h: 0,
            off_w: 0,
        }
    }

    /// Shift every tile origin by `(off_h, off_w)` (tiles clip at the
    /// region boundary); used for padded convolutions whose first
    /// window starts at `-pad`.
    pub fn with_offset(mut self, off_h: i64, off_w: i64) -> Self {
        self.off_h = off_h;
        self.off_w = off_w;
        self
    }

    /// Total number of tiles.
    pub fn len(&self) -> u64 {
        self.n_rows * self.n_cols
    }

    /// Whether the grid is empty (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the tiles clipped to `region`. Tiles whose origin falls
    /// outside the region are skipped.
    ///
    /// Clipping is separable: a tile exists iff its row span and its
    /// column span both survive, so the tiles are exactly the product of
    /// [`row_spans`](Self::row_spans) and [`col_spans`](Self::col_spans),
    /// row-major.
    pub fn tiles(&self, region: Region) -> impl Iterator<Item = TileRect> + '_ {
        self.row_spans(region).flat_map(move |(r0, rows)| {
            self.col_spans(region)
                .map(move |(c0, cols)| TileRect::new(r0, c0, rows, cols))
        })
    }

    /// `(first row, row extent)` of every tile row that survives
    /// clipping to `region`.
    pub fn row_spans(&self, region: Region) -> impl Iterator<Item = (u64, u64)> {
        axis_spans(self.n_rows, self.step_h, self.off_h, self.tile_h, region.h)
    }

    /// `(first column, column extent)` of every tile column that
    /// survives clipping to `region`.
    pub fn col_spans(&self, region: Region) -> impl Iterator<Item = (u64, u64)> {
        axis_spans(self.n_cols, self.step_w, self.off_w, self.tile_w, region.w)
    }
}

/// One axis of a grid: `count` tiles of nominal extent `tile`, origins
/// `step` apart from the signed origin `off`, clipped to `[0, extent)`.
fn axis_spans(
    count: u64,
    step: u64,
    off: i64,
    tile: u64,
    extent: u64,
) -> impl Iterator<Item = (u64, u64)> {
    (0..count).filter_map(move |i| {
        // Signed origin, clipped into the region; the clipped amount
        // shrinks the tile.
        let signed = (i * step) as i64 + off;
        let start = signed.max(0) as u64;
        if start >= extent {
            return None;
        }
        let clip = (start as i64 - signed) as u64;
        if tile <= clip {
            return None;
        }
        Some((start, (tile - clip).min(extent - start)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_partitions_the_region() {
        let region = Region::new(30, 30);
        let g = TileGrid::covering(region, 10, 7);
        assert_eq!(g.n_rows, 3);
        assert_eq!(g.n_cols, 5);
        let total: u64 = g.tiles(region).map(|t| t.elems()).sum();
        assert_eq!(total, region.elems());
        // Edge column tiles are clipped to 2 wide.
        let last = g.tiles(region).last().unwrap();
        assert_eq!(last.cols, 2);
    }

    #[test]
    fn halo_grid_overlaps() {
        // Conv ifmap tiles: window 5, stride 3 over 11 rows -> 3 tiles.
        let region = Region::new(11, 11);
        let g = TileGrid::covering_with_halo(region, 5, 5, 3, 3);
        assert_eq!(g.n_rows, 3);
        let total: u64 = g.tiles(region).map(|t| t.elems()).sum();
        assert!(total > region.elems(), "halos duplicate data");
        for t in g.tiles(region) {
            assert!(t.fits_in(region));
        }
    }

    #[test]
    fn single_tile_grid() {
        let region = Region::new(8, 8);
        let g = TileGrid::covering(region, 8, 8);
        assert_eq!(g.len(), 1);
        assert_eq!(g.tiles(region).next().unwrap(), TileRect::new(0, 0, 8, 8));
    }

    #[test]
    fn negative_offset_clips_first_tiles() {
        // 3x3 windows stepping 2 with pad 1: origins -1, 1, 3, ...
        let region = Region::new(8, 8);
        let g = TileGrid::covering_with_halo(region, 3, 3, 2, 2).with_offset(-1, -1);
        let tiles: Vec<_> = g.tiles(region).collect();
        // First tile is clipped to 2x2 at the origin.
        assert_eq!(tiles[0], TileRect::new(0, 0, 2, 2));
        // Interior tiles are full 3x3 at shifted positions.
        assert!(tiles.iter().any(|t| *t == TileRect::new(1, 1, 3, 3)));
        for t in &tiles {
            assert!(t.fits_in(region));
        }
    }

    #[test]
    fn oversized_tile_is_clipped() {
        let region = Region::new(5, 5);
        let g = TileGrid::covering(region, 10, 10);
        let t = g.tiles(region).next().unwrap();
        assert_eq!((t.rows, t.cols), (5, 5));
    }
}
