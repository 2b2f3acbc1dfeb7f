//! One ledger per server: the counts behind its report, its `/metrics`
//! counters and its `mupod-obs` counters, kept in one place.
//!
//! A server declares its tallies once with [`tally_table!`]: an enum
//! naming each tally plus a static table whose rows carry the
//! Prometheus family name, its HELP text and the `mupod-obs` counter
//! name, all derived from the report field the tally backs. A
//! [`Tallies`] holds one atomic count per row. [`Tallies::bump`] adds
//! to the count and to the obs counter in one call, `/metrics` renders
//! every row in table order ([`Tallies::expose`]), and the drain report
//! reads the same counts ([`Tallies::get`]). The three views cannot
//! drift apart because there is nothing to keep in step.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use mupod_obs::Exposition;

/// One tally's names.
pub(crate) struct Row {
    /// Prometheus counter family, e.g. `mupod_requests_ok_total`.
    pub(crate) metric: &'static str,
    /// The family's HELP text.
    pub(crate) help: &'static str,
    /// `mupod-obs` counter name, e.g. `serve.requests_ok`.
    pub(crate) obs: &'static str,
}

/// A server's tally enum and its table (see [`tally_table!`]).
pub(crate) trait Table: Copy {
    /// One row per tally, in `/metrics` order.
    const ROWS: &'static [Row];
    /// This tally's row.
    fn index(self) -> usize;
}

/// Declares a tally enum and its [`Table`]. Each row is
/// `Variant report_field "HELP text"`; the Prometheus name is
/// `<metric prefix><report_field>_total` and the obs name
/// `<obs prefix><report_field>`, so the report field, the exposition
/// family and the obs counter share one spelling.
macro_rules! tally_table {
    (
        $(#[$doc:meta])*
        $name:ident, $metric:literal, $obs:literal {
            $($variant:ident $field:ident $help:literal,)+
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub(crate) enum $name {
            $($variant,)+
        }

        impl $crate::tally::Table for $name {
            const ROWS: &'static [$crate::tally::Row] = &[$($crate::tally::Row {
                metric: concat!($metric, stringify!($field), "_total"),
                help: $help,
                obs: concat!($obs, stringify!($field)),
            },)+];

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}
pub(crate) use tally_table;

/// One atomic count per row of table `T`.
pub(crate) struct Tallies<T> {
    counts: Box<[AtomicU64]>,
    table: PhantomData<T>,
}

impl<T: Table> Tallies<T> {
    pub(crate) fn new() -> Self {
        Tallies {
            counts: T::ROWS.iter().map(|_| AtomicU64::new(0)).collect(),
            table: PhantomData,
        }
    }

    /// Adds `n` to `tally` and to its obs counter; returns the new
    /// count (each caller sees a distinct value, which the restart
    /// budget relies on).
    pub(crate) fn bump(&self, tally: T, n: u64) -> u64 {
        mupod_obs::counter_add(T::ROWS[tally.index()].obs, n);
        self.counts[tally.index()]
            .fetch_add(n, Ordering::Relaxed)
            .wrapping_add(n)
    }

    pub(crate) fn get(&self, tally: T) -> u64 {
        self.load(tally.index())
    }

    fn load(&self, i: usize) -> u64 {
        // ordering: Relaxed — a tally is a monotone count that guards
        // no other data, so a reader at worst sees it a moment stale.
        self.counts[i].load(Ordering::Relaxed)
    }

    /// Renders every tally as a counter family, in table order.
    pub(crate) fn expose(&self, e: &mut Exposition) {
        for (i, row) in T::ROWS.iter().enumerate() {
            e.counter(row.metric, row.help, self.load(i));
        }
    }
}
