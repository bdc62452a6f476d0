//! The collective built on the message path: all-gather. YGM applications
//! use it for the small control-plane exchanges around the bulk async
//! traffic (e.g. replicating per-rank results).
//!
//! It is an SPMD collective: every rank must call it at the same point with
//! the same tag.

use crate::codec::Wire;
use crate::comm::Comm;
use std::cell::RefCell;
use std::rc::Rc;

/// Gather one `Wire` value from every rank; every rank receives the full
/// vector indexed by rank. Uses `tag` for its traffic (must not collide
/// with application tags and must be registered by this call only).
pub fn all_gather<T: Wire + Clone + 'static>(comm: &Comm, tag: u16, value: &T) -> Vec<T> {
    let slots: Rc<RefCell<Vec<Option<T>>>> = Rc::new(RefCell::new(vec![None; comm.n_ranks()]));
    let sink = Rc::clone(&slots);
    comm.register::<(u32, T), _>(tag, move |_, (src, v)| {
        sink.borrow_mut()[src as usize] = Some(v);
    });
    for dest in 0..comm.n_ranks() {
        comm.async_send(dest, tag, &(comm.rank() as u32, value.clone()));
    }
    comm.barrier();
    let out = slots
        .borrow_mut()
        .iter_mut()
        .map(|s| s.take().expect("missing all_gather contribution"))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    const TAG: u16 = 50;

    #[test]
    fn all_gather_orders_by_rank() {
        let report = World::new(4).run(|comm| all_gather(comm, TAG, &(comm.rank() as u64 * 100)));
        for r in &report.results {
            assert_eq!(r, &vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn all_gather_vectors() {
        let report = World::new(3).run(|comm| {
            let mine = vec![comm.rank() as u32; comm.rank() + 1];
            all_gather(comm, TAG, &mine)
        });
        for r in &report.results {
            assert_eq!(r[0], vec![0u32]);
            assert_eq!(r[1], vec![1, 1]);
            assert_eq!(r[2], vec![2, 2, 2]);
        }
    }

    #[test]
    fn all_gather_on_single_rank() {
        let report = World::new(1).run(|comm| all_gather(comm, TAG, &7u32));
        assert_eq!(report.results[0], vec![7]);
    }
}
