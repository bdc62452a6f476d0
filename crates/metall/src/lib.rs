//! # metall — persistent datastore for k-NNG pipelines
//!
//! A simplified Rust analogue of
//! [Metall](https://github.com/LLNL/metall), the persistent memory allocator
//! the DNND paper uses to hand constructed k-NN graphs and datasets between
//! its two executables (k-NNG construction, then graph optimization) and to
//! keep indices across runs.
//!
//! Metall proper exposes a C++ STL-compatible allocator over `mmap`-ed
//! files. Rust lacks stable allocator-polymorphic std containers, so this
//! crate keeps Metall's *workflow contract* instead of its mechanism: a
//! named-object store rooted at a directory, with atomic commits, checksums,
//! and snapshots. The DNND pipeline stores the dataset matrix and each
//! rank's neighbor lists under well-known names, reopens the store in a
//! separate process/step, and continues. See `DESIGN.md` at the repository
//! root for the substitution rationale.
//!
//! ```
//! use metall::Store;
//! let dir = std::env::temp_dir().join("metall-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let mut store = Store::create(&dir).unwrap();
//! store.put("knng/neighbors", &vec![3u32, 1, 4, 1, 5]).unwrap();
//! drop(store);
//!
//! let store = Store::open(&dir).unwrap();
//! let ids: Vec<u32> = store.get("knng/neighbors").unwrap();
//! assert_eq!(ids, vec![3, 1, 4, 1, 5]);
//! # metall::Store::destroy(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod checksum;
pub mod error;
pub mod persist;
pub mod store;

pub use error::{Result, StoreError};
pub use persist::Persist;
pub use store::Store;
