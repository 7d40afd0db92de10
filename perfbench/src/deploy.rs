//! In-process deployments: the servers (and router) a workload talks to,
//! brought up and warmed the way an operator would.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;

use ppet_cluster::{ClusterConfig, Router};
use ppet_serve::{CompileBackend, ServeConfig, Server};

use crate::client;
use crate::gen::{oracle_requests, Plan, Workload};

/// Hot-tier capacity of the `store_churn` server, far below its working
/// set so reads go to the persistent store.
pub const CHURN_HOT_TIER: usize = 8;

/// A background accept loop and the way to stop it.
struct Running {
    stop: Box<dyn Fn() + Send>,
    join: JoinHandle<()>,
}

impl Running {
    fn halt(self) {
        (self.stop)();
        self.join.join().expect("accept loop panicked");
    }
}

fn serve<B: CompileBackend>(
    backend: B,
    config: ServeConfig,
) -> std::io::Result<(SocketAddr, Running)> {
    let server = Server::bind("127.0.0.1:0", backend, config)?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    Ok((
        addr,
        Running {
            stop: Box::new(move || handle.shutdown()),
            join,
        },
    ))
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// A `ppet_cluster::Router` in front of running servers.
pub struct Front {
    /// Where the router listens.
    pub addr: SocketAddr,
    running: Running,
}

impl Front {
    /// Starts a router with the default cluster configuration over
    /// `shards` (ring order = slice order).
    pub fn start<B: CompileBackend>(backend: B, shards: &[SocketAddr]) -> Result<Self, String> {
        let router = Router::bind(
            "127.0.0.1:0",
            backend,
            shards.iter().map(SocketAddr::to_string).collect(),
            ClusterConfig::default(),
        )
        .map_err(|e| format!("bind router: {e}"))?;
        let addr = router.local_addr();
        let handle = router.handle();
        let join = std::thread::spawn(move || router.run());
        Ok(Self {
            addr,
            running: Running {
                stop: Box::new(move || handle.shutdown()),
                join,
            },
        })
    }

    /// Stops the router and waits for it to drain.
    pub fn stop(self) {
        self.running.halt();
    }
}

/// The running servers of one workload.
pub struct Deployment {
    /// Where the clients send their requests (the router, if any).
    pub target: SocketAddr,
    /// The compile servers, in ring order.
    pub shards: Vec<SocketAddr>,
    /// Setup's answer to each working-set request (`cold_compile`: to each
    /// oracle request).
    pub answers: Vec<String>,
    router: Option<Front>,
    servers: Vec<Running>,
}

impl Deployment {
    /// Brings `plan`'s servers up and answers its working set once through
    /// them. Everything this does counts as set-up time. `scratch` is an
    /// empty directory the deployment may keep its store in.
    pub fn start<B: CompileBackend + Clone>(
        plan: &Plan,
        backend: &B,
        scratch: &Path,
    ) -> Result<Self, String> {
        let mut deployment = match plan.workload {
            Workload::ColdCompile | Workload::HotRead => {
                let (addr, server) =
                    serve(backend.clone(), ServeConfig::default()).map_err(io("bind"))?;
                Deployment::direct(addr, vec![server])
            }
            Workload::StoreChurn => {
                let config = ServeConfig {
                    store_dir: Some(scratch.join("store")),
                    cache_capacity: CHURN_HOT_TIER,
                    ..ServeConfig::default()
                };
                // Write the working set through a first server, then
                // restart over the same directory: the timed server replays
                // the store and starts with a cold hot tier.
                let (addr, writer) = serve(backend.clone(), config.clone()).map_err(io("bind"))?;
                let answers = warm(addr, plan)?;
                writer.halt();
                let (addr, server) = serve(backend.clone(), config).map_err(io("reopen"))?;
                let mut deployment = Deployment::direct(addr, vec![server]);
                deployment.answers = answers;
                return Ok(deployment);
            }
            Workload::RoutedRead => {
                let mut shards = Vec::new();
                let mut servers = Vec::new();
                for _ in 0..2 {
                    let (addr, server) =
                        serve(backend.clone(), ServeConfig::default()).map_err(io("bind"))?;
                    shards.push(addr);
                    servers.push(server);
                }
                let front = Front::start(backend.clone(), &shards)?;
                Deployment {
                    target: front.addr,
                    shards,
                    answers: Vec::new(),
                    router: Some(front),
                    servers,
                }
            }
        };
        deployment.answers = if plan.workload == Workload::ColdCompile {
            oracle_requests()
                .iter()
                .map(|(request, _)| client::compile(deployment.target, &request.to_json()))
                .collect::<Result<_, _>>()?
        } else {
            warm(deployment.target, plan)?
        };
        Ok(deployment)
    }

    fn direct(addr: SocketAddr, servers: Vec<Running>) -> Self {
        Deployment {
            target: addr,
            shards: vec![addr],
            answers: Vec::new(),
            router: None,
            servers,
        }
    }

    /// Stops the router, then the servers, waiting for each to drain.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.stop();
        }
        for server in self.servers {
            server.halt();
        }
    }
}

/// Compiles the working set through `addr`, one request at a time.
fn warm(addr: SocketAddr, plan: &Plan) -> Result<Vec<String>, String> {
    plan.working_set
        .iter()
        .map(|request| client::compile(addr, &request.to_json()))
        .collect()
}

/// Request counts per latency outcome (`hit`, `store_hit`, `miss`, ...)
/// summed over `addrs`, scraped from `GET /metrics`.
pub fn outcomes(addrs: &[SocketAddr]) -> Result<BTreeMap<String, u64>, String> {
    let mut counts = BTreeMap::new();
    for &addr in addrs {
        let reply =
            client::call(addr, "GET", "/metrics", "").map_err(|e| format!("GET /metrics: {e}"))?;
        for line in reply.body.lines() {
            let Some(rest) = line.strip_prefix("serve_latency_us_count{outcome=\"") else {
                continue;
            };
            let Some((outcome, value)) = rest.split_once("\"} ") else {
                continue;
            };
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad metrics line {line:?}"))?;
            *counts.entry(outcome.to_owned()).or_insert(0) += value;
        }
    }
    Ok(counts)
}
