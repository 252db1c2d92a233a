//! Layer probes: fixed-size loops over one layer's public functions, timed
//! apart from the end-to-end timing. Each probe reports host nanoseconds
//! per operation, the median of [`REPS`] repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use votm::{Addr, TmAlgorithm, Votm};
use votm_ds::{BoundedBuffer, TxHashMap, TxQueue};
use votm_rac::AdmissionGate;
use votm_sim::{block_on, Notify, RealHandle, Rt, RunStatus, SimConfig, SimExecutor};
use votm_stm::instance::run_sync;
use votm_stm::TmInstance;

use crate::run::{algo_key, median};

/// Repetitions per probe.
const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, which returns `(elapsed ns, ops)`,
/// as nanoseconds per operation.
fn per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let xs: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops.max(1) as f64
        })
        .collect();
    median(&xs)
}

/// Times `ops` iterations of `body`.
fn timed(ops: u64, mut body: impl FnMut(u64)) -> (f64, u64) {
    let t = Instant::now();
    for i in 0..ops {
        body(i);
    }
    (t.elapsed().as_nanos() as f64, ops)
}

/// Runs a simulation and returns its wall time and executor steps.
fn sim_steps(ex: &mut SimExecutor) -> (f64, u64) {
    let t = Instant::now();
    let out = ex.run();
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(out.status, RunStatus::Completed, "probe simulation stalled");
    (ns, out.steps)
}

/// Every probe metric, by name, in nanoseconds per operation.
pub fn run_all() -> Vec<(String, f64)> {
    let mut out = Vec::new();

    // sim: one task re-enqueueing after short charges.
    out.push((
        "sim.probe.charge_ns".to_string(),
        per_op(|| {
            let mut ex = SimExecutor::new(SimConfig::default());
            ex.spawn(|rt: Rt| async move {
                for i in 0..20_000u64 {
                    rt.charge(1 + i % 60).await;
                }
            });
            sim_steps(&mut ex)
        }),
    ));
    // sim: sixteen tasks charging onto the same virtual times.
    out.push((
        "sim.probe.storm16_ns".to_string(),
        per_op(|| {
            let mut ex = SimExecutor::new(SimConfig::default());
            for _ in 0..16 {
                ex.spawn(|rt: Rt| async move {
                    for _ in 0..1_000 {
                        rt.charge(12).await;
                    }
                });
            }
            sim_steps(&mut ex)
        }),
    ));
    // sim: two tasks waking each other through a Notify pair; per round.
    out.push((
        "sim.probe.notify_roundtrip_ns".to_string(),
        per_op(|| {
            const ROUNDS: u64 = 2_000;
            let ping = Arc::new(Notify::new());
            let pong = Arc::new(Notify::new());
            let mut ex = SimExecutor::new(SimConfig::default());
            let (a, b) = (Arc::clone(&ping), Arc::clone(&pong));
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..ROUNDS {
                    rt.charge(5).await;
                    a.notify_all();
                    let e = b.epoch();
                    rt.wait(&b, e).await;
                }
            });
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..ROUNDS {
                    let e = ping.epoch();
                    rt.wait(&ping, e).await;
                    rt.charge(5).await;
                    pong.notify_all();
                }
            });
            let (ns, _) = sim_steps(&mut ex);
            (ns, ROUNDS)
        }),
    ));

    // stm: one transaction per operation on one thread.
    for algo in TmAlgorithm::ALL {
        let key = algo_key(algo);
        let inst = TmInstance::new(algo, 4096);
        out.push((
            format!("stm.probe.read_tx_ns.{key}"),
            per_op(|| {
                timed(20_000, |_| {
                    black_box(run_sync(&inst, 0, |tx, inst| {
                        let mut acc = 0u64;
                        for i in 0..64u32 {
                            acc = acc.wrapping_add(tx.read(inst, Addr(i * 7 % 4096))?);
                        }
                        Ok(acc)
                    }));
                })
            }),
        ));
        out.push((
            format!("stm.probe.write_tx_ns.{key}"),
            per_op(|| {
                timed(20_000, |i| {
                    run_sync(&inst, 0, |tx, inst| {
                        for k in 0..32u32 {
                            tx.write(inst, Addr(k * 11 % 4096), i)?;
                        }
                        Ok(())
                    });
                })
            }),
        ));
        out.push((
            format!("stm.probe.counter_tx_ns.{key}"),
            per_op(|| {
                timed(100_000, |_| {
                    run_sync(&inst, 0, |tx, inst| {
                        let v = tx.read(inst, Addr(0))?;
                        tx.write(inst, Addr(0), v + 1)
                    });
                })
            }),
        ));
    }
    let inst = TmInstance::new(TmAlgorithm::NOrec, 1 << 16);
    out.push((
        "stm.probe.alloc_free_ns".to_string(),
        per_op(|| {
            timed(200_000, |_| {
                let a = inst.heap().alloc_block(8).expect("probe heap has room");
                inst.heap().free_block(black_box(a));
            })
        }),
    ));

    // rac: admission fast path and release.
    let rt = Rt::Real(RealHandle::standalone(0));
    let gate = AdmissionGate::new(16, 16);
    out.push((
        "rac.probe.admit_release_ns".to_string(),
        per_op(|| {
            timed(200_000, |_| {
                drop(black_box(block_on(gate.admit(&rt))));
            })
        }),
    ));

    // ds: one data-structure operation per transaction, real-thread mode.
    let sys = Votm::builder().algo(TmAlgorithm::NOrec).threads(1).build();
    let view = sys.create_view(1 << 16, votm::QuotaMode::Fixed(1));
    let map = TxHashMap::create(&view, 1024);
    out.push((
        "ds.probe.hashmap_op_ns".to_string(),
        per_op(|| {
            let (ns, n) = timed(5_000, |i| {
                let k = i % 512;
                block_on(view.transact(&rt, async |tx| map.insert(tx, k, i).await));
                block_on(view.transact(&rt, async |tx| map.get(tx, k).await));
                block_on(view.transact(&rt, async |tx| map.remove(tx, k).await));
            });
            (ns, 3 * n)
        }),
    ));
    let queue = TxQueue::create(&view);
    out.push((
        "ds.probe.queue_op_ns".to_string(),
        per_op(|| {
            let (ns, n) = timed(10_000, |i| {
                block_on(view.transact(&rt, async |tx| queue.push_back(tx, i).await));
                block_on(view.transact(&rt, async |tx| queue.pop_front(tx).await));
            });
            (ns, 2 * n)
        }),
    ));
    let buf = BoundedBuffer::create(&view, 16);
    out.push((
        "ds.probe.bounded_op_ns".to_string(),
        per_op(|| {
            let (ns, n) = timed(10_000, |i| {
                block_on(view.transact(&rt, async |tx| buf.try_push(tx, i).await));
                block_on(view.transact(&rt, async |tx| buf.try_pop(tx).await));
            });
            (ns, 2 * n)
        }),
    ));
    out
}
