// Environment-driven observability bootstrap for bench/example mains.
//
// Declare one EnvSession at the top of main():
//
//   ODN_TRACE=out.json    ./bench_preempt_churn  # Perfetto trace at exit
//   ODN_METRICS=out.prom  ./bench_preempt_churn  # Prometheus text at exit
//   ODN_FLIGHT=out.json   ./bench_preempt_churn  # flight record at exit
//
// The constructor reads the variables, enables the tracer when ODN_TRACE
// is set and the flight recorder when ODN_FLIGHT is set; the destructor
// drains the trace to the requested path, writes the global metrics
// registry snapshot, and dumps the flight record. None of the files touch
// stdout, so golden-compared report streams stay byte-identical with
// observability on or off.
//
// Crash safety: the constructor registers a one-shot atexit + terminate
// flush, so an aborted run (a failed invariant check escaping as an
// uncaught exception, or a mid-run exit()) still produces parseable
// artifacts instead of nothing. The flush is idempotent — the normal
// destructor path claims it first.
#pragma once

#include <string>

namespace odn::obs {

// Registers `path`s to flush on exit()/std::terminate. Empty strings skip
// that artifact. Installs the atexit/terminate hooks on first call;
// subsequent calls only update the paths. EnvSession calls this — direct
// use is for mains that parse --trace-out style flags instead of env.
void register_crash_flush(const std::string& trace_path,
                          const std::string& metrics_path,
                          const std::string& flight_path);

// Writes every registered artifact once; later calls (and the installed
// hooks) are no-ops. Returns true when this call performed the flush.
bool flush_observability_artifacts() noexcept;

class EnvSession {
 public:
  EnvSession();
  ~EnvSession();

  EnvSession(const EnvSession&) = delete;
  EnvSession& operator=(const EnvSession&) = delete;

  bool tracing() const noexcept { return !trace_path_.empty(); }
  bool metrics() const noexcept { return !metrics_path_.empty(); }
  bool flight() const noexcept { return !flight_path_.empty(); }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string flight_path_;
};

}  // namespace odn::obs
