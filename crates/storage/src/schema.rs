//! Table and column identifiers, schemas, and the builder used by the
//! workload crates to declare a database layout.

/// Identifies a table within a [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// Identifies a column within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColId(pub u16);

impl ColId {
    /// Column index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        usize::from(self.0)
    }
}

/// Static description of one table: name, column names, and sizing.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Human-readable table name ("WAREHOUSE", "usertable", ...).
    pub name: String,
    /// One name per column; the column count is `columns.len()`.
    pub columns: Vec<String>,
    /// Row capacity the table is modelled with. Tables do not grow past
    /// it: the workload sizes them with headroom for the inserts it will
    /// perform, matching the preallocated device-buffer discipline of a GPU
    /// engine, and every modelled figure (`Table::bytes`, conflict-log
    /// sizing, [`TableError::Full`]) reads it. The host holds only what a
    /// table occupies (see [`Table`]).
    ///
    /// [`Table`]: crate::Table
    /// [`TableError::Full`]: crate::TableError::Full
    pub capacity: usize,
}

impl Schema {
    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Look a column up by name.
    pub fn col(&self, name: &str) -> Option<ColId> {
        self.columns.iter().position(|c| c == name).map(|i| ColId(i as u16))
    }
}

/// Fluent builder for a [`Schema`].
///
/// ```
/// use ltpg_storage::TableBuilder;
/// let schema = TableBuilder::new("WAREHOUSE")
///     .column("W_TAX")
///     .column("W_YTD")
///     .capacity(64)
///     .build();
/// assert_eq!(schema.width(), 2);
/// assert_eq!(schema.col("W_YTD").unwrap().0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
}

impl TableBuilder {
    /// Start building a table called `name`.
    pub fn new(name: &str) -> Self {
        TableBuilder {
            schema: Schema { name: name.to_owned(), columns: Vec::new(), capacity: 0 },
        }
    }

    /// Append a column.
    pub fn column(mut self, name: &str) -> Self {
        self.schema.columns.push(name.to_owned());
        self
    }

    /// Append several columns at once.
    pub fn columns<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.schema.columns.extend(names.into_iter().map(str::to_owned));
        self
    }

    /// Set the row capacity.
    pub fn capacity(mut self, rows: usize) -> Self {
        self.schema.capacity = rows;
        self
    }

    /// Finish, validating that the table has at least one column and a
    /// nonzero capacity.
    pub fn build(self) -> Schema {
        assert!(!self.schema.columns.is_empty(), "table {} has no columns", self.schema.name);
        assert!(self.schema.capacity > 0, "table {} has zero capacity", self.schema.name);
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_schema() {
        let s = TableBuilder::new("T").columns(["a", "b", "c"]).capacity(10).build();
        assert_eq!(s.name, "T");
        assert_eq!(s.width(), 3);
        assert_eq!(s.capacity, 10);
        assert_eq!(s.col("b"), Some(ColId(1)));
        assert_eq!(s.col("z"), None);
    }

    #[test]
    #[should_panic(expected = "no columns")]
    fn empty_schema_rejected() {
        TableBuilder::new("T").capacity(1).build();
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn zero_capacity_rejected() {
        TableBuilder::new("T").column("a").build();
    }
}
