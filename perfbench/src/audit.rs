//! The independent schedule auditor.
//!
//! Everything here is recomputed from plain integers: the job list as it
//! was submitted and the start time the scheduler gave each job. None of
//! it calls the kernel, the cluster ledger or the metrics crate, so a bug
//! shared by those cannot hide itself here.

use std::collections::BTreeMap;

/// One job as submitted: the facts the schedule must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    pub id: u32,
    pub submit_ms: u64,
    pub runtime_ms: u64,
    pub nodes: u64,
    pub memory_gb: u64,
}

/// One job as the scheduler ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ran {
    pub id: u32,
    pub start_ms: u64,
    pub end_ms: u64,
}

/// A flat machine: total nodes and total memory.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub nodes: u64,
    pub memory_gb: u64,
}

/// What the schedule claims about itself, checked against the recount.
#[derive(Debug, Clone, Copy, Default)]
pub struct Claims {
    /// `SimOutcome::node_seconds`, where the driver exposes it.
    pub node_seconds: Option<f64>,
    /// The schedule came from the simulator's FCFS policy, so start order
    /// must follow `(submit, id)` order.
    pub fcfs: bool,
}

/// Objectives recomputed from the audited schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    pub avg_wait_s: f64,
    pub avg_turnaround_s: f64,
    pub makespan_s: f64,
    pub node_utilization: f64,
}

/// Check one schedule. Returns the recomputed objectives, or every
/// violation found (capped, so a broken schedule does not flood the log).
pub fn audit(
    machine: Machine,
    submitted: &[Submitted],
    ran: &[Ran],
    claims: Claims,
) -> Result<Objectives, Vec<String>> {
    let mut errors = Vec::new();
    let mut push = |msg: String| {
        if errors.len() < 20 {
            errors.push(msg);
        }
    };
    if submitted.is_empty() {
        return Err(vec!["empty workload".to_string()]);
    }

    // Each job starts exactly once, no earlier than its submit time, runs
    // exactly its runtime, and every submitted job completes.
    let mut by_id: BTreeMap<u32, (Submitted, Option<Ran>)> = BTreeMap::new();
    for s in submitted {
        if by_id.insert(s.id, (*s, None)).is_some() {
            push(format!("job {} submitted twice", s.id));
        }
    }
    for r in ran {
        match by_id.get_mut(&r.id) {
            None => push(format!("job {} ran but was never submitted", r.id)),
            Some((_, Some(_))) => push(format!("job {} started more than once", r.id)),
            Some((s, slot)) => {
                if r.start_ms < s.submit_ms {
                    push(format!(
                        "job {} starts at {} ms, before its submit time {} ms",
                        r.id, r.start_ms, s.submit_ms
                    ));
                }
                if r.end_ms != r.start_ms + s.runtime_ms {
                    push(format!(
                        "job {} ran {} ms, not its runtime {} ms",
                        r.id,
                        r.end_ms.saturating_sub(r.start_ms),
                        s.runtime_ms
                    ));
                }
                if s.nodes > machine.nodes || s.memory_gb > machine.memory_gb {
                    push(format!("job {} is wider than the machine", r.id));
                }
                *slot = Some(*r);
            }
        }
    }
    let mut jobs: Vec<(Submitted, Ran)> = Vec::with_capacity(by_id.len());
    for (id, (s, r)) in &by_id {
        match r {
            Some(r) => jobs.push((*s, *r)),
            None => push(format!("job {id} never completed")),
        }
    }

    // Sweep line over nodes and memory: releases at an instant come before
    // starts at that instant, as a job ending at t frees its nodes for a
    // job starting at t.
    let mut events: Vec<(u64, u8, u64, u64)> = Vec::with_capacity(2 * jobs.len());
    for (s, r) in &jobs {
        events.push((r.start_ms, 1, s.nodes, s.memory_gb));
        events.push((r.end_ms, 0, s.nodes, s.memory_gb));
    }
    events.sort_unstable();
    // Signed, so a zero-length job (released before it starts) cannot
    // underflow the running totals.
    let (mut nodes, mut memory) = (0i128, 0i128);
    let mut node_ms: i128 = 0;
    let mut last_t = events.first().map_or(0, |e| e.0);
    for &(t, kind, n, m) in &events {
        node_ms += nodes * i128::from(t - last_t);
        last_t = t;
        if kind == 0 {
            nodes -= i128::from(n);
            memory -= i128::from(m);
        } else {
            nodes += i128::from(n);
            memory += i128::from(m);
            if nodes > i128::from(machine.nodes) || memory > i128::from(machine.memory_gb) {
                push(format!(
                    "at {t} ms the running jobs hold {nodes} nodes and {memory} GB, \
                     over the machine's {} nodes and {} GB",
                    machine.nodes, machine.memory_gb
                ));
            }
        }
    }

    // Under FCFS, start order follows (submit, id) order.
    if claims.fcfs {
        let mut order: Vec<&(Submitted, Ran)> = jobs.iter().collect();
        order.sort_by_key(|(s, _)| (s.submit_ms, s.id));
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.1.start_ms < a.1.start_ms {
                push(format!(
                    "FCFS: job {} starts at {} ms, before earlier-submitted job {} at {} ms",
                    b.0.id, b.1.start_ms, a.0.id, a.1.start_ms
                ));
            }
        }
    }

    // Integrals and bounds.
    let node_seconds = node_ms as f64 / 1000.0;
    let work_ms: i128 = jobs
        .iter()
        .map(|(s, _)| i128::from(s.nodes) * i128::from(s.runtime_ms))
        .sum();
    if work_ms != node_ms {
        push(format!(
            "sweep integral {node_ms} node-ms differs from the jobs' work {work_ms} node-ms"
        ));
    }
    if let Some(claimed) = claims.node_seconds {
        if !close(claimed, node_seconds, 1e-9) {
            push(format!(
                "node_seconds {claimed} differs from the recomputed {node_seconds}"
            ));
        }
    }
    if jobs.is_empty() {
        return Err(errors);
    }
    let first_submit = jobs.iter().map(|(s, _)| s.submit_ms).min().unwrap_or(0);
    let last_end = jobs.iter().map(|(_, r)| r.end_ms).max().unwrap_or(0);
    let makespan_ms = last_end - first_submit;
    let longest = jobs
        .iter()
        .map(|(s, _)| s.submit_ms + s.runtime_ms - first_submit)
        .max()
        .unwrap_or(0);
    let area_ms = (work_ms + i128::from(machine.nodes) - 1) / i128::from(machine.nodes.max(1));
    if i128::from(makespan_ms) < area_ms || makespan_ms < longest {
        push(format!(
            "makespan {makespan_ms} ms is below a lower bound (area {area_ms} ms, longest job {longest} ms)"
        ));
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    let n = jobs.len() as f64;
    let wait_ms: u128 = jobs
        .iter()
        .map(|(s, r)| u128::from(r.start_ms - s.submit_ms))
        .sum();
    let turnaround_ms: u128 = jobs
        .iter()
        .map(|(s, r)| u128::from(r.end_ms - s.submit_ms))
        .sum();
    let makespan_s = makespan_ms as f64 / 1000.0;
    Ok(Objectives {
        avg_wait_s: wait_ms as f64 / 1000.0 / n,
        avg_turnaround_s: turnaround_ms as f64 / 1000.0 / n,
        makespan_s,
        node_utilization: if makespan_ms == 0 {
            0.0
        } else {
            work_ms as f64 / (machine.nodes as f64 * makespan_ms as f64)
        },
    })
}

/// The auditor's own check, run at the start of every benchmark run: a
/// hand-made schedule that overfills the machine must be rejected.
pub fn rejects_an_infeasible_schedule() -> bool {
    let machine = Machine {
        nodes: 4,
        memory_gb: 4,
    };
    let jobs = [
        Submitted {
            id: 1,
            submit_ms: 0,
            runtime_ms: 10,
            nodes: 3,
            memory_gb: 1,
        },
        Submitted {
            id: 2,
            submit_ms: 0,
            runtime_ms: 10,
            nodes: 2,
            memory_gb: 1,
        },
    ];
    let ran = [
        Ran {
            id: 1,
            start_ms: 0,
            end_ms: 10,
        },
        Ran {
            id: 2,
            start_ms: 5,
            end_ms: 15,
        },
    ];
    audit(machine, &jobs, &ran, Claims::default()).is_err()
}

/// `true` when `a` and `b` agree to a relative tolerance (absolute near 0).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Compare recomputed objectives with the program's own figures.
/// `abs` absorbs the program's six-decimal rounding of campaign cells.
pub fn check_objectives(
    label: &str,
    mine: &Objectives,
    theirs: &Objectives,
    abs: f64,
) -> Result<(), String> {
    let pairs = [
        ("avg_wait", mine.avg_wait_s, theirs.avg_wait_s),
        (
            "avg_turnaround",
            mine.avg_turnaround_s,
            theirs.avg_turnaround_s,
        ),
        ("makespan", mine.makespan_s, theirs.makespan_s),
        ("node_util", mine.node_utilization, theirs.node_utilization),
    ];
    for (name, a, b) in pairs {
        if !((a - b).abs() <= abs || close(a, b, 1e-9)) {
            return Err(format!(
                "{label}: {name} recomputed as {a}, reported as {b}"
            ));
        }
    }
    Ok(())
}

/// Pareto ranks by repeated non-dominated peeling, over minimisation
/// vectors. Rank 0 is the front.
pub fn pareto_ranks(points: &[Vec<f64>]) -> Vec<usize> {
    let dominates = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let mut rank = vec![usize::MAX; points.len()];
    let mut level = 0;
    while rank.contains(&usize::MAX) {
        let open: Vec<usize> = (0..points.len())
            .filter(|&i| rank[i] == usize::MAX)
            .collect();
        let front: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&i| {
                !open
                    .iter()
                    .any(|&j| j != i && dominates(&points[j], &points[i]))
            })
            .collect();
        for i in front {
            rank[i] = level;
        }
        level += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit_ms: u64, runtime_ms: u64, nodes: u64) -> Submitted {
        Submitted {
            id,
            submit_ms,
            runtime_ms,
            nodes,
            memory_gb: nodes,
        }
    }

    const MACHINE: Machine = Machine {
        nodes: 4,
        memory_gb: 4,
    };

    #[test]
    fn accepts_a_feasible_schedule() {
        let jobs = [job(1, 0, 10, 4), job(2, 0, 5, 2), job(3, 5, 5, 2)];
        let ran = [
            Ran {
                id: 1,
                start_ms: 0,
                end_ms: 10,
            },
            Ran {
                id: 2,
                start_ms: 10,
                end_ms: 15,
            },
            Ran {
                id: 3,
                start_ms: 10,
                end_ms: 15,
            },
        ];
        let claims = Claims {
            node_seconds: Some(0.06),
            fcfs: true,
        };
        let obj = audit(MACHINE, &jobs, &ran, claims).expect("feasible");
        assert_eq!(obj.makespan_s, 0.015);
        assert!(close(obj.avg_wait_s, (0.0 + 0.010 + 0.005) / 3.0, 1e-12));
    }

    #[test]
    fn rejects_every_kind_of_infeasible_schedule() {
        let jobs = [job(1, 0, 10, 3), job(2, 0, 5, 2), job(3, 5, 5, 1)];
        let cases: [(&str, Vec<Ran>); 5] = [
            (
                "over the machine's",
                vec![
                    Ran {
                        id: 1,
                        start_ms: 0,
                        end_ms: 10,
                    },
                    Ran {
                        id: 2,
                        start_ms: 0,
                        end_ms: 5,
                    },
                    Ran {
                        id: 3,
                        start_ms: 10,
                        end_ms: 15,
                    },
                ],
            ),
            (
                "before its submit",
                vec![
                    Ran {
                        id: 1,
                        start_ms: 0,
                        end_ms: 10,
                    },
                    Ran {
                        id: 2,
                        start_ms: 10,
                        end_ms: 15,
                    },
                    Ran {
                        id: 3,
                        start_ms: 0,
                        end_ms: 5,
                    },
                ],
            ),
            (
                "not its runtime",
                vec![
                    Ran {
                        id: 1,
                        start_ms: 0,
                        end_ms: 9,
                    },
                    Ran {
                        id: 2,
                        start_ms: 10,
                        end_ms: 15,
                    },
                    Ran {
                        id: 3,
                        start_ms: 10,
                        end_ms: 15,
                    },
                ],
            ),
            (
                "never completed",
                vec![
                    Ran {
                        id: 1,
                        start_ms: 0,
                        end_ms: 10,
                    },
                    Ran {
                        id: 2,
                        start_ms: 10,
                        end_ms: 15,
                    },
                ],
            ),
            (
                "more than once",
                vec![
                    Ran {
                        id: 1,
                        start_ms: 0,
                        end_ms: 10,
                    },
                    Ran {
                        id: 2,
                        start_ms: 10,
                        end_ms: 15,
                    },
                    Ran {
                        id: 3,
                        start_ms: 10,
                        end_ms: 15,
                    },
                    Ran {
                        id: 3,
                        start_ms: 20,
                        end_ms: 25,
                    },
                ],
            ),
        ];
        for (expect, ran) in cases {
            let errors = audit(MACHINE, &jobs, &ran, Claims::default()).expect_err(expect);
            assert!(
                errors.iter().any(|e| e.contains(expect)),
                "{expect}: {errors:?}"
            );
        }
    }

    #[test]
    fn rejects_fcfs_overtaking_and_a_wrong_integral() {
        let jobs = [job(1, 0, 10, 4), job(2, 1, 5, 1)];
        let ran = [
            Ran {
                id: 1,
                start_ms: 6,
                end_ms: 16,
            },
            Ran {
                id: 2,
                start_ms: 1,
                end_ms: 6,
            },
        ];
        let fcfs = Claims {
            node_seconds: None,
            fcfs: true,
        };
        let errors = audit(MACHINE, &jobs, &ran, fcfs).expect_err("overtaking");
        assert!(errors.iter().any(|e| e.contains("FCFS")));
        let wrong = Claims {
            node_seconds: Some(1.0),
            fcfs: false,
        };
        let errors = audit(MACHINE, &jobs, &ran, wrong).expect_err("integral");
        assert!(errors.iter().any(|e| e.contains("node_seconds")));
    }

    #[test]
    fn peels_pareto_fronts() {
        let points = vec![
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![2.0, 3.0],
            vec![3.0, 3.0],
        ];
        assert_eq!(pareto_ranks(&points), vec![0, 0, 1, 2]);
    }
}
