//! The Hurricane cluster simulator.
//!
//! A fluid-flow, event-driven model: between events every running task
//! processes input at a rate set by (a) its per-worker CPU rate times its
//! instance count and (b) its max–min fair share of the storage pool,
//! where the pool is the aggregate disk (or memory) bandwidth of the
//! cluster scaled by the batch-sampling utilization ρ(b, m) of paper
//! Eq. 1. Events — task completions, merge completions, the 2-second
//! clone ticks, crash injections, master outages — change the rate
//! vector; between events everything is linear, so the simulation jumps
//! from event to event exactly.
//!
//! Crucially, the *decision logic* is not re-modelled: clone decisions
//! call [`hurricane_core::heuristic::CloneDecision`] (Eq. 2) and storage
//! utilization calls [`hurricane_storage::batch::utilization`] (Eq. 1) —
//! the same code the threaded runtime executes.

use crate::alloc::{max_min_fair, FlowDemand};
use crate::spec::{ClusterSpec, DataPlacement, HurricaneOpts, SimApp};
use hurricane_common::metrics::TimeSeries;
use hurricane_common::units::GB;
use hurricane_core::heuristic::CloneDecision;
use hurricane_storage::batch::utilization;
use std::collections::BTreeMap;

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end runtime, seconds (including startup).
    pub total_secs: f64,
    /// Wall-clock interval per phase label: (first start, last finish).
    pub phase_secs: BTreeMap<String, f64>,
    /// Clones created per task name.
    pub clones: BTreeMap<String, u32>,
    /// Total clones created.
    pub total_clones: u32,
    /// Highest number of simultaneously busy workers.
    pub peak_workers: usize,
    /// Highest instance count reached by any single task.
    pub peak_task_instances: usize,
    /// Bytes-processed events for throughput-over-time plots.
    pub timeline: TimeSeries,
    /// True if the simulation hit the safety time cap.
    pub timed_out: bool,
}

/// Hard cap on simulated time (the paper kills runs after 12 h; we allow
/// twice that before declaring a runaway).
pub const SIM_TIME_CAP: f64 = 24.0 * 3600.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    Waiting,
    Starting { at: f64 },
    Running,
    Merging { remaining: f64 },
    Done,
}

#[derive(Debug, Clone)]
struct TaskRun {
    state: RunState,
    remaining: f64,
    nodes: Vec<usize>,
    clones: u32,
    first_start: Option<f64>,
    finished_at: Option<f64>,
    last_rate: f64,
}

/// Simulates `app` on `cluster` under `opts`.
pub fn simulate(app: &SimApp, cluster: &ClusterSpec, opts: &HurricaneOpts) -> SimResult {
    let n = app.tasks.len();
    let mut runs: Vec<TaskRun> = app
        .tasks
        .iter()
        .map(|t| TaskRun {
            state: RunState::Waiting,
            remaining: t.input_bytes.max(0.0),
            nodes: Vec::new(),
            clones: 0,
            first_start: None,
            finished_at: None,
            last_rate: 0.0,
        })
        .collect();
    let mut node_alive = vec![true; cluster.machines];
    let mut node_busy = vec![0u32; cluster.machines];
    let mut timeline = TimeSeries::new();
    let mut peak_workers = 0usize;
    let max_instances = opts.max_instances.unwrap_or(cluster.machines).max(1);

    // Memory-vs-disk regime: small inputs run from page cache (Table 1's
    // first three points), large ones from disk.
    let per_machine = app.input_bytes / cluster.machines as f64;
    let disk_mode = per_machine > 4.0 * GB as f64;
    let gc_loss = match opts.gc {
        Some(gc) => {
            let spilling = per_machine * 2.5 > cluster.mem_per_machine as f64;
            if !gc.only_when_spilling || spilling {
                gc.throughput_loss
            } else {
                0.0
            }
        }
        None => 0.0,
    };

    let mut t = opts.startup_secs;
    let mut next_clone_tick = t + opts.clone_interval;
    let mut crashes = opts.crashes.clone();
    crashes.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite"));
    let mut master_crashes = opts.master_crashes.clone();
    master_crashes.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite"));
    let mut master_down_until = f64::NEG_INFINITY;
    let mut timed_out = false;
    let mut rejoins: Vec<(f64, usize)> = Vec::new();

    // Dependency counting: tasks become eligible when their pending-deps
    // counter reaches zero (O(edges) total instead of O(n·deps) per event).
    let mut pending_deps: Vec<usize> = app.tasks.iter().map(|t| t.deps.len()).collect();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, task) in app.tasks.iter().enumerate() {
        for &d in &task.deps {
            successors[d].push(i);
        }
    }
    let mut eligible: Vec<usize> = (0..n).filter(|&i| pending_deps[i] == 0).collect();
    let mut done_count = 0usize;
    let mark_done = |i: usize,
                     pending_deps: &mut Vec<usize>,
                     eligible: &mut Vec<usize>,
                     done_count: &mut usize| {
        *done_count += 1;
        for &s in &successors[i] {
            pending_deps[s] -= 1;
            if pending_deps[s] == 0 {
                eligible.push(s);
            }
        }
    };

    let pick_node = |node_busy: &[u32], node_alive: &[bool]| -> Option<usize> {
        node_alive
            .iter()
            .enumerate()
            .filter(|&(i, &alive)| alive && (node_busy[i] as usize) < cluster.slots_per_machine)
            .min_by_key(|&(i, _)| (node_busy[i], i))
            .map(|(i, _)| i)
    };

    loop {
        // --- 1. Start tasks whose dependencies are complete. -------------
        let master_up = t >= master_down_until;
        if master_up {
            let e = 0;
            while e < eligible.len() {
                let i = eligible[e];
                if runs[i].state != RunState::Waiting {
                    eligible.swap_remove(e);
                    continue;
                }
                if let Some(node) = pick_node(&node_busy, &node_alive) {
                    node_busy[node] += 1;
                    runs[i].nodes.push(node);
                    runs[i].state = RunState::Starting {
                        at: t + opts.schedule_latency,
                    };
                    eligible.swap_remove(e);
                } else {
                    break; // No free slot: nothing else can start either.
                }
            }
        }
        // Promote started tasks whose schedule latency elapsed.
        for run in runs.iter_mut() {
            if let RunState::Starting { at } = run.state {
                if t >= at {
                    run.state = RunState::Running;
                    run.first_start.get_or_insert(t);
                }
            }
        }

        // --- 2. Compute rates. -------------------------------------------
        let alive_machines = node_alive.iter().filter(|&&a| a).count().max(1);
        let unit_bw = if disk_mode {
            cluster.disk_bw
        } else {
            cluster.mem_bw
        };
        let rho = utilization(opts.batch_factor, alive_machines as u32);
        let pool = alive_machines as f64 * unit_bw * rho * (1.0 - gc_loss);
        // Build flow demands. Spread tasks share the global pool. Local
        // tasks funnel through one home disk: reads always hit it, and a
        // single (uncloned) worker's writes do too; clones write their
        // partial outputs to their own nodes' disks (paper §5.2,
        // Configuration 3 discussion), so only reads stay on the home
        // node once a task is cloned.
        let local_pool = unit_bw * (1.0 - gc_loss);
        let mut spread_idx = Vec::new();
        let mut spread_flows = Vec::new();
        let mut local_idx = Vec::new();
        let mut local_flows = Vec::new();
        let mut io_div = vec![1.0f64; n];
        let mut rates = vec![0.0f64; n];
        for i in 0..n {
            if runs[i].state != RunState::Running {
                continue;
            }
            let task = &app.tasks[i];
            let k = runs[i].nodes.len() as f64;
            if k == 0.0 {
                continue;
            }
            let io_rw = (task.read_factor + task.write_factor).max(1e-9);
            match task.placement {
                DataPlacement::Spread => {
                    io_div[i] = io_rw;
                    let per_worker_io = (task.cpu_rate * io_rw).min(cluster.net_bw);
                    spread_idx.push(i);
                    spread_flows.push(FlowDemand {
                        cap: k * per_worker_io,
                    });
                }
                DataPlacement::Local => {
                    let home_factor = if k > 1.0 {
                        task.read_factor.max(1e-9)
                    } else {
                        io_rw
                    };
                    io_div[i] = home_factor;
                    local_idx.push(i);
                    local_flows.push(FlowDemand {
                        cap: k * task.cpu_rate * home_factor,
                    });
                }
            }
        }
        let granted = max_min_fair(&spread_flows, pool);
        for (slot, &i) in spread_idx.iter().enumerate() {
            rates[i] = granted[slot] / io_div[i];
        }
        let granted_local = max_min_fair(&local_flows, local_pool);
        for (slot, &i) in local_idx.iter().enumerate() {
            let task = &app.tasks[i];
            let k = runs[i].nodes.len() as f64;
            let mut rate = granted_local[slot] / io_div[i];
            // Cloned local tasks still pay for clone-side writes on the
            // clones' own disks.
            if k > 1.0 && task.write_factor > 0.0 {
                let write_cap = k * (unit_bw / task.write_factor).min(task.cpu_rate);
                rate = rate.min(write_cap);
            }
            rates[i] = rate.min(k * task.cpu_rate);
        }
        for i in 0..n {
            runs[i].last_rate = rates[i];
        }
        let busy_now: usize = runs
            .iter()
            .map(|r| match r.state {
                RunState::Running | RunState::Starting { .. } => r.nodes.len(),
                RunState::Merging { .. } => 1,
                _ => 0,
            })
            .sum();
        peak_workers = peak_workers.max(busy_now);

        // --- 3. Next event time. ------------------------------------------
        let mut dt = f64::INFINITY;
        for i in 0..n {
            match runs[i].state {
                RunState::Running if rates[i] > 0.0 => {
                    dt = dt.min(runs[i].remaining / rates[i]);
                }
                RunState::Starting { at } => dt = dt.min((at - t).max(0.0)),
                RunState::Merging { remaining } => {
                    let rate = app.tasks[i].merge.map(|m| m.rate).unwrap_or(f64::INFINITY);
                    dt = dt.min(remaining / rate);
                }
                _ => {}
            }
        }
        if opts.cloning {
            dt = dt.min(next_clone_tick - t);
        }
        if let Some(c) = crashes.first() {
            if c.at > t {
                dt = dt.min(c.at - t);
            } else {
                dt = 0.0;
            }
        }
        for &(at, _) in &rejoins {
            if at > t {
                dt = dt.min(at - t);
            }
        }
        if let Some(mc) = master_crashes.first() {
            if mc.at > t {
                dt = dt.min(mc.at - t);
            } else {
                dt = 0.0;
            }
        }
        if !master_up {
            dt = dt.min(master_down_until - t);
        }
        if dt == f64::INFINITY {
            // Nothing can progress: either done, or stuck waiting for a
            // resource that will never appear (all nodes dead).
            if done_count == n {
                break;
            }
            timed_out = true;
            t = SIM_TIME_CAP;
            break;
        }
        let dt = dt.max(1e-9);

        // --- 4. Advance time linearly. ------------------------------------
        let mut bytes_this_step = 0.0;
        for i in 0..n {
            if runs[i].state == RunState::Running {
                let processed = (rates[i] * dt).min(runs[i].remaining);
                runs[i].remaining -= processed;
                bytes_this_step += processed;
            }
            if let RunState::Merging { remaining } = runs[i].state {
                let rate = app.tasks[i].merge.map(|m| m.rate).unwrap_or(f64::MAX);
                runs[i].state = RunState::Merging {
                    remaining: (remaining - rate * dt).max(0.0),
                };
            }
        }
        if bytes_this_step > 0.0 {
            timeline.record(t + dt / 2.0, bytes_this_step);
        }
        t += dt;
        if t > SIM_TIME_CAP {
            timed_out = true;
            break;
        }

        // --- 5. Process events at the new time. ---------------------------
        // Task / merge completions.
        #[allow(clippy::needless_range_loop)] // walks `runs` and `app.tasks` in parallel
        for i in 0..n {
            if runs[i].state == RunState::Running && runs[i].remaining <= 1e-6 {
                let k = runs[i].nodes.len();
                for &node in &runs[i].nodes {
                    node_busy[node] = node_busy[node].saturating_sub(1);
                }
                runs[i].nodes.clear();
                let needs_merge = app.tasks[i].merge.is_some() && k > 1;
                if needs_merge {
                    let m = app.tasks[i].merge.expect("checked");
                    let merge_bytes = m.bytes_per_instance * k as f64;
                    // The merge occupies one worker.
                    if let Some(node) = pick_node(&node_busy, &node_alive) {
                        node_busy[node] += 1;
                        runs[i].nodes.push(node);
                    }
                    runs[i].state = RunState::Merging {
                        remaining: merge_bytes,
                    };
                } else {
                    runs[i].state = RunState::Done;
                    runs[i].finished_at = Some(t);
                    mark_done(i, &mut pending_deps, &mut eligible, &mut done_count);
                }
            } else if let RunState::Merging { remaining } = runs[i].state {
                if remaining <= 1e-6 {
                    for &node in &runs[i].nodes {
                        node_busy[node] = node_busy[node].saturating_sub(1);
                    }
                    runs[i].nodes.clear();
                    runs[i].state = RunState::Done;
                    runs[i].finished_at = Some(t);
                    mark_done(i, &mut pending_deps, &mut eligible, &mut done_count);
                }
            }
        }

        // Master crash landing.
        if let Some(mc) = master_crashes.first().copied() {
            if t >= mc.at {
                master_down_until = mc.at + mc.recovery_secs;
                master_crashes.remove(0);
            }
        }

        // Node crashes landing.
        while let Some(c) = crashes.first().copied() {
            if t < c.at {
                break;
            }
            crashes.remove(0);
            if c.node < node_alive.len() {
                node_alive[c.node] = false;
                node_busy[c.node] = 0;
                // Every task with an instance on the node restarts from
                // scratch (paper §4.4: discard outputs, rewind inputs,
                // terminate all running clones, reschedule).
                #[allow(clippy::needless_range_loop)] // walks `runs` and `app.tasks` in parallel
                for i in 0..n {
                    let on_node = runs[i].nodes.contains(&c.node);
                    if !on_node {
                        continue;
                    }
                    match runs[i].state {
                        RunState::Running | RunState::Starting { .. } => {
                            for &node in &runs[i].nodes {
                                if node != c.node {
                                    node_busy[node] = node_busy[node].saturating_sub(1);
                                }
                            }
                            runs[i].nodes.clear();
                            runs[i].remaining = app.tasks[i].input_bytes;
                            runs[i].state = RunState::Waiting;
                            eligible.push(i); // Deps still satisfied.
                        }
                        RunState::Merging { .. } => {
                            runs[i].nodes.clear();
                            let m = app.tasks[i].merge.expect("merging implies merge");
                            let k = (runs[i].clones + 1) as f64;
                            runs[i].state = RunState::Merging {
                                remaining: m.bytes_per_instance * k,
                            };
                            if let Some(node) = pick_node(&node_busy, &node_alive) {
                                node_busy[node] += 1;
                                runs[i].nodes.push(node);
                            }
                        }
                        _ => {}
                    }
                }
            }
            if let Some(back) = c.back_at {
                if c.node < node_alive.len() {
                    rejoins.push((back, c.node));
                    rejoins.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                }
            }
        }
        // Rejoins (paper §3.4: a compute node is added by just starting a
        // task manager on it).
        while let Some(&(at, node)) = rejoins.first() {
            if t < at {
                break;
            }
            node_alive[node] = true;
            rejoins.remove(0);
        }

        // Clone tick (paper: decisions at clone-interval granularity; the
        // instance count can double each tick because every worker of an
        // overloaded task files a request).
        if opts.cloning && t + 1e-9 >= next_clone_tick {
            next_clone_tick += opts.clone_interval;
            if master_up {
                for i in 0..n {
                    if runs[i].state != RunState::Running || !app.tasks[i].clonable {
                        continue;
                    }
                    let task = &app.tasks[i];
                    let k0 = runs[i].nodes.len();
                    if k0 == 0 {
                        continue;
                    }
                    // Overload (paper §4.2): CPU saturation — the task
                    // achieves its full CPU demand, so shared storage is
                    // not the limiter — or, for locally-placed data, home-
                    // node endpoint saturation (one NIC/disk serves every
                    // reader). A spread task bound by the shared pool does
                    // not clone (paper §3.2: peak storage bandwidth is
                    // already the best case).
                    let per_worker = rates[i] / k0 as f64;
                    let cpu_saturated = per_worker >= 0.95 * task.cpu_rate;
                    let endpoint_saturated = task.placement == DataPlacement::Local;
                    if !cpu_saturated && !endpoint_saturated {
                        continue;
                    }
                    // T_IO: a merge-less task has "minimal state and does
                    // not require a merge" (paper §3.2) — the master
                    // always grants its clones. Merge-bearing tasks pay
                    // clone-state reads and merging at the *aggregate*
                    // (spread) storage bandwidth.
                    let io_bw = if task.merge.is_some() {
                        pool.max(1.0)
                    } else {
                        f64::INFINITY
                    };
                    let mut added = 0usize;
                    while added < k0 {
                        let k = runs[i].nodes.len();
                        if k >= max_instances {
                            break;
                        }
                        // T from the task's current aggregate rate;
                        // T_IO as the paper models it: twice the
                        // remaining input (once in, once out).
                        let decision = CloneDecision {
                            instances: k as u32,
                            remaining_s: runs[i].remaining / rates[i].max(1.0),
                            overhead_s: 2.0 * runs[i].remaining / io_bw,
                        };
                        if !decision.should_clone() {
                            break;
                        }
                        let Some(node) = pick_node(&node_busy, &node_alive) else {
                            break;
                        };
                        node_busy[node] += 1;
                        runs[i].nodes.push(node);
                        runs[i].clones += 1;
                        added += 1;
                    }
                }
            }
        }

        if done_count == n {
            break;
        }
    }

    // Assemble the result.
    let mut phase_bounds: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut clones = BTreeMap::new();
    let mut total_clones = 0;
    let mut peak_task_instances = 0usize;
    for (i, run) in runs.iter().enumerate() {
        let task = &app.tasks[i];
        if run.clones > 0 {
            clones.insert(task.name.clone(), run.clones);
            total_clones += run.clones;
        }
        peak_task_instances = peak_task_instances.max((run.clones + 1) as usize);
        if let (Some(s), Some(f)) = (run.first_start, run.finished_at) {
            let e = phase_bounds
                .entry(task.phase.clone())
                .or_insert((f64::INFINITY, 0.0));
            e.0 = e.0.min(s);
            e.1 = e.1.max(f);
        }
    }
    let phase_secs = phase_bounds
        .into_iter()
        .map(|(k, (s, f))| (k, (f - s).max(0.0)))
        .collect();
    SimResult {
        total_secs: t,
        phase_secs,
        clones,
        total_clones,
        peak_workers,
        peak_task_instances,
        timeline,
        timed_out,
    }
}
