//! An in-process `polychronyd` served on a unix socket, and the client
//! call every service measurement goes through.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polychrony_client::{Client, Endpoint};
use polychrony_server::{Daemon, DaemonConfig, ServerError};
use polywire::{JobSpec, WireReport};

use crate::trace::Tracer;

/// A running daemon with its serve loop. The socket lives in the working
/// directory under a relative path, so it stays inside the checkout and
/// short of the unix socket path limit.
pub struct Service {
    daemon: Daemon,
    serve: Option<JoinHandle<Result<(), ServerError>>>,
    endpoint: Endpoint,
}

static SOCKETS: AtomicU64 = AtomicU64::new(0);

impl Service {
    /// Starts a daemon with `workers` workers and waits until its socket
    /// accepts connections.
    pub fn start(workers: usize) -> Result<Self, String> {
        let path = PathBuf::from(format!(
            ".perfbench-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        ));
        let daemon = Daemon::new(DaemonConfig {
            workers,
            ..DaemonConfig::default()
        })
        .map_err(|e| format!("daemon start failed: {e}"))?;
        let serve = {
            let daemon = daemon.clone();
            let path = path.clone();
            std::thread::spawn(move || daemon.serve_unix(&path))
        };
        let endpoint = Endpoint::Unix(path);
        let service = Service {
            daemon,
            serve: Some(serve),
            endpoint,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.endpoint.connect().is_err() {
            if Instant::now() > deadline {
                return Err(format!("daemon at {} never accepted", service.endpoint));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(service)
    }

    pub fn connect(&self) -> Result<Client, String> {
        self.endpoint
            .connect()
            .map_err(|e| format!("client connect failed: {e}"))
    }

    /// Shuts the daemon down and joins its serve loop and workers. Drop
    /// every client first: their connection handlers end on hang-up.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.daemon.request_shutdown();
        if let Some(serve) = self.serve.take() {
            let _ = serve.join();
        }
        self.daemon.join();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.serve.is_some() {
            self.shutdown();
        }
    }
}

/// Submits `spec`, waits for its result and returns it with the client-side
/// latency. The daemon's own worker time is recorded as a span nested in
/// the client span.
pub fn submit_and_wait(
    client: &mut Client,
    spec: &JobSpec,
    tracer: &mut Tracer,
) -> Result<(WireReport, Duration), String> {
    let started = Instant::now();
    let root = tracer.begin_job("client.submit_wait");
    let result = client
        .submit(spec, true)
        .and_then(|_| client.wait(|_, _| {}))
        .map_err(|e| format!("{}: {e}", spec.name));
    if let Ok((_, report)) = &result {
        tracer.record_inside("server.worker", Duration::from_micros(report.wall_us));
    }
    tracer.end(root);
    let latency = started.elapsed();
    let (_, report) = result?;
    match &report.error {
        Some(error) => Err(format!("{}: job failed: {error}", spec.name)),
        None => Ok((report, latency)),
    }
}

/// Client round trips of `reps` `status` requests for job `id`, in ms.
pub fn roundtrip_ms(client: &mut Client, id: u64, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            client
                .status(Some(id))
                .map_err(|e| format!("status round trip failed: {e}"))?;
            Ok(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}
