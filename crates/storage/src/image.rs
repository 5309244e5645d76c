//! Checkpoint images: a database's rows, and no index.
//!
//! An [`Image`] keeps per table the schema, the cells and keys of the
//! allocated row slots, the row count and the slot count of the primary
//! index — a number, not a copy: an index is derived from the keys, so
//! nothing can probe an image. [`Image::to_database`] rebuilds each index
//! at the recorded slot count, every key under its own
//! [`RowId`](crate::RowId), so a replay grows its indexes to the sizes the
//! source did. [`Image::refresh_from`] copies, while the image mirrors its
//! source, only the row slots written since the last refresh (the delta),
//! and the live prefix otherwise. An index growth moves no row: it costs
//! the next refresh nothing.

use crate::database::Database;
use crate::dirty::in_groups;
use crate::index::PrimaryIndex;
use crate::schema::Schema;
use crate::table::{copy_prefix, Synced, Table};
use crate::zeroed::{copy_to_fresh, zeroed};

/// What one refresh of an image ([`Image::refresh_from`]) copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCopy {
    /// Row slots whose cells (and, where they could have changed, key)
    /// were copied.
    pub rows: u64,
    /// Whether the full copy was taken (by any table) because the image did
    /// not mirror the source as of its last drain.
    pub full: bool,
}

/// A rows-only copy of a [`Database`], table for table.
#[derive(Default)]
pub struct Image {
    tables: Vec<TableImage>,
}

impl Image {
    /// An image of `db` that mirrors it: its first
    /// [`refresh_from`](Self::refresh_from) the same database is a delta.
    pub fn of(db: &Database) -> Image {
        let mut image = Image::default();
        image.refresh_from(db);
        image
    }

    /// Make `self` an image of `src` as it is now, in the arrays `self`
    /// already owns (an image with another table count starts over), and
    /// say what that copied. Drains `src`'s marks.
    pub fn refresh_from(&mut self, src: &Database) -> ImageCopy {
        if self.tables.len() != src.table_count() {
            self.tables = src.iter().map(|_| TableImage::default()).collect();
        }
        let mut copied = ImageCopy::default();
        for (image, (_, table)) in self.tables.iter_mut().zip(src.iter()) {
            let one = image.refresh_from(table);
            (copied.rows, copied.full) = (copied.rows + one.rows, copied.full | one.full);
        }
        copied
    }

    /// The database the image holds: fresh tables with its rows, each
    /// primary index rebuilt at its source's slot count (an ordered index
    /// declared, left for its first scan to build).
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for table in &self.tables {
            db.add_built_table(table.to_table());
        }
        db
    }

    /// Bytes of cells and keys the image holds: the live prefix of every
    /// table (the zero pages past it are never touched).
    pub fn resident_bytes(&self) -> u64 {
        let bytes = |t: &TableImage| t.seen.rows * (t.schema.as_ref().map_or(0, Schema::width) + 1) * 8;
        self.tables.iter().map(bytes).sum::<usize>() as u64
    }
}

/// One table of an [`Image`].
#[derive(Default)]
pub(crate) struct TableImage {
    schema: Option<Schema>,
    /// The source's arrays' lengths; zero past `seen.rows`.
    cells: Box<[i64]>,
    keys: Box<[i64]>,
    /// What the last refresh took of the source. While the source still
    /// has its `sync`, the two differ only in the row slots marked since
    /// and those from its row count up.
    seen: Synced,
}

impl TableImage {
    /// Bring the image up to date with `src`, by delta when it mirrors
    /// `src` and by the full copy otherwise; drain `src`'s marks.
    pub(crate) fn refresh_from(&mut self, src: &Table) -> ImageCopy {
        let synced = self.seen.rows;
        match src.sync_image(&mut self.seen) {
            Some((marked, keys_moved)) => self.copy_written(src, synced, marked, keys_moved),
            None => self.copy_all(src, synced),
        }
    }

    /// The full copy: the live prefix is overwritten in the arrays `self`
    /// has when they are `src`'s size and the `held` rows written in them
    /// are no more than `src`'s (no page of a 100 MB image is faulted in
    /// again), and copied into fresh zeroed ones otherwise, so no row of a
    /// larger table stays behind.
    fn copy_all(&mut self, src: &Table, held: usize) -> ImageCopy {
        let ((cells, keys), n, width) = (src.words(), src.len(), src.width());
        let copy = if self.cells.len() != cells.len() || self.keys.len() != keys.len() || held > n {
            (self.cells, self.keys) = (zeroed(cells.len()), zeroed(keys.len()));
            copy_to_fresh
        } else {
            <[i64]>::copy_from_slice
        };
        copy(&mut self.cells[..n * width], &cells[..n * width]);
        copy(&mut self.keys[..n], &keys[..n]);
        self.schema = Some(src.schema().clone());
        ImageCopy { rows: n as u64, full: true }
    }

    /// The delta: the cells of the `marked` row slots below `synced` (the
    /// row count last seen), and their keys only if `keys_moved` (an
    /// update-only period costs one cache miss a side per row, not two),
    /// then every slot allocated since, whole.
    fn copy_written(
        &mut self,
        src: &Table,
        synced: usize,
        marked: impl Iterator<Item = usize>,
        keys_moved: bool,
    ) -> ImageCopy {
        let ((src_cells, src_keys), n, width) = (src.words(), src.len(), src.width());
        let (cells, keys) = (&mut self.cells, &mut self.keys);
        let updated = in_groups(marked, |group| {
            copy_cells_of(group, cells, src_cells, width);
            if keys_moved {
                group.iter().for_each(|&r| keys[r] = src_keys[r]);
            }
        });
        cells[synced * width..n * width].copy_from_slice(&src_cells[synced * width..n * width]);
        keys[synced..n].copy_from_slice(&src_keys[synced..n]);
        ImageCopy { rows: updated + (n - synced) as u64, full: false }
    }

    /// A table holding the image's rows, its index rebuilt.
    pub(crate) fn to_table(&self) -> Table {
        let schema = self.schema.clone().expect("an image of a table");
        let (seen, width) = (self.seen, schema.width());
        let (n, keys) = (seen.rows, &self.keys[..seen.rows]);
        let primary = PrimaryIndex::rebuilt(seen.index_slots, seen.index_unlaid, keys);
        let (data, keys) = (copy_prefix(&self.cells, n * width), copy_prefix(&self.keys, n));
        Table::from_parts(schema, data, keys, n, primary, seen.ordered)
    }
}

/// Copy the cells of row slots `rows` of `src`, a table's cells `width`
/// words a row, into an image's `cells`, in the two passes of
/// [`in_groups`]: touch, then copy.
fn copy_cells_of(rows: &[usize], cells: &mut [i64], src: &[i64], width: usize) {
    let touch = |line: Option<&i64>| {
        std::hint::black_box(line.copied());
    };
    for &r in rows {
        let at = r * width..(r + 1) * width;
        for side in [&src[at.clone()], &cells[at]] {
            touch(side.first());
            touch(side.last());
        }
    }
    for &r in rows {
        let at = r * width..(r + 1) * width;
        cells[at.clone()].copy_from_slice(&src[at]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableBuilder;

    /// Cells, keys, row count, index slot count and whether the index was
    /// an unlaid placeholder: everything an image holds, for tests that
    /// hold one bit-equal to a fresh image.
    type ImageBits = (Vec<i64>, Vec<i64>, usize, usize, bool);

    impl Image {
        pub(crate) fn bits(&self) -> Vec<ImageBits> {
            self.tables.iter().map(TableImage::bits).collect()
        }
    }

    /// A full copy of a smaller table of the same shape leaves nothing of
    /// the larger one the image held: it is the fresh image, and holds the
    /// smaller table's live prefix alone.
    #[test]
    fn a_full_copy_of_fewer_rows_leaves_no_page_behind() {
        let table = |rows: i64, capacity: usize| {
            let mut t = Table::new(TableBuilder::new("T").columns(["a", "b"]).capacity(capacity).build());
            for k in 0..rows {
                t.insert(k, &[k, k]).unwrap();
            }
            let mut db = Database::new();
            db.add_built_table(t);
            db
        };
        let row = 3 * 8;
        let (large, small) = (table(400, 1_000), table(100, 1_000));
        let mut image = Image::of(&large);
        assert_eq!(image.resident_bytes(), 400 * row);
        let held = image.tables[0].cells.as_ptr();
        assert!(image.refresh_from(&table(400, 1_000)).full);
        assert_eq!(image.tables[0].cells.as_ptr(), held, "the same rows land in place");
        assert!(image.refresh_from(&small).full);
        assert_ne!(image.tables[0].cells.as_ptr(), held, "fewer rows get fresh arrays");
        assert_eq!(image.resident_bytes(), 100 * row);
        assert!(image.bits() == Image::of(&small.deep_clone()).bits());
        assert_eq!(image.to_database().state_digest(), small.state_digest());
    }

    impl TableImage {
        pub(crate) fn bits(&self) -> ImageBits {
            let seen = self.seen;
            (self.cells.to_vec(), self.keys.to_vec(), seen.rows, seen.index_slots, seen.index_unlaid)
        }
    }
}
