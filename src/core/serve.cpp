#include "src/core/serve.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/campaign.hpp"
#include "src/core/lease.hpp"
#include "src/core/request.hpp"
#include "src/core/telemetry.hpp"
#include "src/faults/udfm_map.hpp"
#include "src/library/osu018.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"
#include "src/util/logging.hpp"
#include "src/util/thread_pool.hpp"

namespace dfmres {

namespace {

/// One admitted campaign. Immutable fields are set on admission (the
/// main thread appends, workers only read); the atomics cross the
/// worker boundary. Lives in a deque so references stay stable as
/// campaigns are admitted.
struct ServeCampaign {
  ServeCampaign(std::string id_in, std::string root_in,
                CampaignManifest manifest_in, int client_fd_in,
                const CancelToken* server_token)
      : id(std::move(id_in)),
        root(std::move(root_in)),
        manifest(std::move(manifest_in)),
        client_fd(client_fd_in),
        token(Deadline::never(), server_token) {}

  std::string id;
  std::string root;
  CampaignManifest manifest;
  int client_fd;  ///< subscriber connection; -1 = headless (main only)
  std::size_t jobs_terminal = 0;  ///< main-thread accounting
  bool done = false;              ///< report event delivered (main only)
  /// Explicit per-campaign cancel (the cancel request): pending jobs
  /// terminalize as skipped shards. Distinct from `token` tripping via
  /// the server parent, which must leave resumable state instead.
  std::atomic<bool> cancel_requested{false};
  /// Merge election within the daemon: first worker to see the full
  /// shard set claims the merge.
  std::atomic<bool> merge_claimed{false};
  CancelToken token;  ///< chained to the server token
};

/// What a worker tells the main loop after finishing a queue item.
struct WorkerEvent {
  std::size_t campaign = 0;
  std::size_t job = 0;
  JobPassOutcome outcome = JobPassOutcome::kCancelled;
  bool terminal = false;       ///< the job now has a shard
  bool campaign_done = false;  ///< this event also merged the report
  std::string report_json;     ///< set when campaign_done
  std::string error;           ///< pass/merge infrastructure error
};

struct Client {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;
};

constexpr std::uint64_t encode_job(std::size_t campaign, std::size_t job) {
  return (static_cast<std::uint64_t>(campaign) << 32) |
         static_cast<std::uint64_t>(job);
}

/// Shared daemon state. The main thread owns admission, client I/O and
/// campaign bookkeeping; workers own job execution. They meet at the
/// job queue (jobs out) and the event list + wake pipe (results in).
struct ServeState {
  explicit ServeState(const ServeOptions& options_in)
      : options(options_in),
        server_token(Deadline::never(), options_in.cancel) {}

  const ServeOptions& options;
  CancelToken server_token;
  std::deque<ServeCampaign> campaigns;
  std::mutex mutex;  ///< guards campaigns size changes, events, queue
  std::vector<WorkerEvent> events;
  /// Admitted jobs waiting for a worker, FIFO. Every entry also counts
  /// in `inflight`, so max_inflight_jobs bounds it.
  std::deque<std::uint64_t> queue;
  std::condition_variable queue_ready;  ///< signalled on push and close
  bool closed = false;  ///< no more pushes; workers drain, then stop
  int wake_write = -1;
  std::atomic<std::size_t> inflight{0};
  int inner_threads = 1;

  ServeCampaign& campaign(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex);
    return campaigns[index];
  }

  void push(std::uint64_t item) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(item);
    }
    queue_ready.notify_one();
  }

  /// Blocks for the next job. Queued jobs are handed out even after
  /// close; false only once the queue is closed and empty.
  bool pop(std::uint64_t* item) {
    std::unique_lock<std::mutex> lock(mutex);
    queue_ready.wait(lock, [this] { return closed || !queue.empty(); });
    if (queue.empty()) return false;
    *item = queue.front();
    queue.pop_front();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    queue_ready.notify_all();
  }

  std::size_t queue_depth() {
    std::lock_guard<std::mutex> lock(mutex);
    return queue.size();
  }

  void post(WorkerEvent event) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(std::move(event));
    }
    const char byte = 1;
    (void)!::write(wake_write, &byte, 1);
  }
};

/// Runs one queue item to a terminal (or abandoned) state, then posts
/// the result. Retries Busy/AttemptFailed/LeaseLost in place: with one
/// daemon each job is popped exactly once, so nobody else will.
void run_queue_item(ServeState& state, const std::string& owner,
                    std::uint64_t item) {
  const std::size_t ci = static_cast<std::size_t>(item >> 32);
  const std::size_t ji = static_cast<std::size_t>(item & 0xffffffffu);
  ServeCampaign& c = state.campaign(ci);
  const CampaignJobSpec& spec = c.manifest.jobs[ji];

  LeaseConfig lease_config;
  lease_config.owner = owner;
  LeaseDir leases(c.root, lease_config);
  WorkerEvent event;
  event.campaign = ci;
  event.job = ji;
  if (Status s = leases.init(); !s.is_ok()) {
    event.error = s.to_string();
    state.post(std::move(event));
    return;
  }

  CampaignJobPassContext ctx;
  ctx.root = c.root;
  ctx.leases = &leases;
  ctx.owner = owner;
  ctx.total_threads = state.options.total_threads;
  ctx.inner_threads = state.inner_threads;
  ctx.cancel = &c.token;
  ctx.max_attempts = lease_config.max_attempts;

  for (;;) {
    ctx.skip = c.cancel_requested.load(std::memory_order_relaxed) &&
               !state.server_token.expired();
    auto outcome = campaign_job_pass(ctx, spec);
    if (!outcome) {
      event.error = outcome.status().to_string();
      break;
    }
    event.outcome = *outcome;
    if (*outcome == JobPassOutcome::kPublished ||
        *outcome == JobPassOutcome::kPoisoned ||
        *outcome == JobPassOutcome::kAlreadyDone) {
      event.terminal = true;
      break;
    }
    if (*outcome == JobPassOutcome::kCancelled) {
      if (state.server_token.expired()) break;  // resumable shutdown
      // Campaign cancel: loop back in and publish the skip shard. The
      // pause covers the moment the token is visibly tripped but
      // cancel_requested is not yet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // Busy / AttemptFailed / LeaseLost: back off and retry. The lease
    // layer's attempt budget bounds this — a job that keeps failing
    // poisons and terminates.
    if (state.server_token.expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (event.terminal && campaign_shards_complete(c.root, c.manifest) &&
      !c.merge_claimed.exchange(true)) {
    auto merged = merge_campaign_shards(c.root);
    if (merged) {
      event.campaign_done = true;
      event.report_json = std::move(*merged);
    } else if (merged.code() != StatusCode::kFailedPrecondition) {
      event.error = merged.status().to_string();
    } else {
      // Lost a race with a shard that vanished? Cannot happen with one
      // daemon; release the claim so a later event retries.
      c.merge_claimed.store(false);
    }
  }
  state.post(std::move(event));
}

void worker_main(ServeState& state, int index) {
  const std::string owner = strfmt("serve-w%d", index);
  std::uint64_t item = 0;
  while (state.pop(&item)) run_queue_item(state, owner, item);
}

// ---- response rendering --------------------------------------------------

std::string render_simple_event(const char* event) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", event);
  w.end_object();
  return w.take() + "\n";
}

std::string render_accepted(const std::string& id, std::size_t jobs) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "accepted");
  if (!id.empty()) w.field("id", id);
  w.field("jobs", static_cast<std::uint64_t>(jobs));
  w.end_object();
  return w.take() + "\n";
}

std::string render_rejected(const std::string& id, const Status& status) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "rejected");
  if (!id.empty()) w.field("id", id);
  w.field("code", status_code_name(status.code()));
  w.field("error", status.message());
  w.end_object();
  return w.take() + "\n";
}

std::string render_error(const Status& status) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "error");
  w.field("code", status_code_name(status.code()));
  w.field("error", status.message());
  w.end_object();
  return w.take() + "\n";
}

std::string render_job_done(const std::string& id, const std::string& job,
                            JobPassOutcome outcome) {
  const char* name = "published";
  if (outcome == JobPassOutcome::kPoisoned) name = "poisoned";
  if (outcome == JobPassOutcome::kAlreadyDone) name = "already_done";
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "job_done");
  w.field("id", id);
  w.field("job", job);
  w.field("outcome", name);
  w.end_object();
  return w.take() + "\n";
}

std::string render_report(const std::string& id,
                          const std::string& report_json) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "report");
  w.field("id", id);
  w.key("report");
  w.raw(report_json);
  w.end_object();
  return w.take() + "\n";
}

std::string render_campaign_status(const std::string& id,
                                   const CampaignStatus& status) {
  std::string doc = render_status_json(status);
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "status");
  w.field("id", id);
  w.key("status");
  w.raw(doc);
  w.end_object();
  return w.take() + "\n";
}

// ---- the daemon ----------------------------------------------------------

class Server {
 public:
  explicit Server(const ServeOptions& options)
      : options_(options), state_(options) {}

  Expected<ServeStats> run();

 private:
  Status setup_socket();
  Status recover_campaigns();
  void accept_clients();
  void read_client(Client& client);
  void flush_client(Client& client);
  void drop_client(std::size_t index);
  void handle_line(Client& client, std::string_view line);
  void handle_request(Client& client, Request request);
  Status admit(const std::string& id, CampaignManifest manifest,
               int client_fd, std::size_t* enqueued);
  void send_to(int fd, const std::string& bytes);
  void process_events();
  ServeCampaign* find_campaign(const std::string& id);
  std::string render_server_status();
  void shutdown_workers();

  const ServeOptions& options_;
  ServeState state_;
  ServeStats stats_;
  int listen_fd_ = -1;
  int wake_read_ = -1;
  std::vector<Client> clients_;
  std::vector<std::thread> workers_;
  bool draining_ = false;
  int drain_fd_ = -1;
  std::size_t active_campaigns_ = 0;
};

Status Server::setup_socket() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return make_status(StatusCode::kInvalidArgument,
                       "serve: bad socket path '%s'",
                       options_.socket_path.c_str());
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return make_status(StatusCode::kInternal, "serve: socket(): %s",
                       std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // serve owns the path
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return make_status(StatusCode::kInternal, "serve: bind('%s'): %s",
                       options_.socket_path.c_str(), std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    return make_status(StatusCode::kInternal, "serve: listen(): %s",
                       std::strerror(errno));
  }
  return Status::ok();
}

/// Startup replay: every sub-root with a manifest but no merged report
/// is an interrupted campaign — re-admit it headless and re-enqueue its
/// unfinished jobs. Lease TTL takeover and checkpoint resume make the
/// re-run bit-identical from wherever the previous daemon died.
Status Server::recover_campaigns() {
  Expected<std::vector<std::string>> entries =
      list_dir(options_.campaign_root);
  if (!entries) return Status::ok();  // fresh root
  for (const std::string& name : *entries) {
    const std::string root = options_.campaign_root + "/" + name;
    if (!path_exists(root + "/manifest.json")) continue;
    if (path_exists(root + "/report.json")) continue;
    auto manifest = read_campaign_root(root);
    if (!manifest) {
      log(LogLevel::Warn, "serve: skipping unreadable campaign '%s': %s",
          name.c_str(), manifest.status().to_string().c_str());
      continue;
    }
    std::size_t enqueued = 0;
    if (Status s = admit(name, std::move(*manifest), -1, &enqueued);
        !s.is_ok()) {
      log(LogLevel::Warn, "serve: cannot recover campaign '%s': %s",
          name.c_str(), s.to_string().c_str());
      continue;
    }
    ++stats_.campaigns_recovered;
    log(LogLevel::Info, "serve: recovered campaign '%s' (%zu job(s) left)",
        name.c_str(), enqueued);
  }
  return Status::ok();
}

ServeCampaign* Server::find_campaign(const std::string& id) {
  for (ServeCampaign& c : state_.campaigns) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

Status Server::admit(const std::string& id, CampaignManifest manifest,
                     int client_fd, std::size_t* enqueued) {
  if (draining_) {
    return make_status(StatusCode::kUnavailable,
                       "server is draining; not accepting submissions");
  }
  if (find_campaign(id) != nullptr) {
    return make_status(StatusCode::kAlreadyExists,
                       "campaign '%s' is already active", id.c_str());
  }
  if (client_fd >= 0) {
    std::size_t active = 0;
    for (const ServeCampaign& c : state_.campaigns) {
      if (c.client_fd == client_fd && !c.done) ++active;
    }
    if (active >= options_.max_client_campaigns) {
      return make_status(StatusCode::kResourceExhausted,
                         "client quota: %zu active campaign(s) (max %zu)",
                         active, options_.max_client_campaigns);
    }
  }
  const std::size_t jobs = manifest.jobs.size();
  const std::size_t inflight = state_.inflight.load();
  if (inflight + jobs > options_.max_inflight_jobs) {
    return make_status(StatusCode::kResourceExhausted,
                       "in-flight job bound: %zu + %zu > %zu", inflight, jobs,
                       options_.max_inflight_jobs);
  }

  const std::string root = options_.campaign_root + "/" + id;
  if (Status s = init_campaign_root(manifest, root); !s.is_ok()) return s;

  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(state_.mutex);
    index = state_.campaigns.size();
    state_.campaigns.emplace_back(id, root, std::move(manifest), client_fd,
                                  &state_.server_token);
  }
  ServeCampaign& c = state_.campaigns[index];
  std::size_t pushed = 0;
  for (std::size_t j = 0; j < c.manifest.jobs.size(); ++j) {
    if (path_exists(root + "/shards/" + c.manifest.jobs[j].name + ".json")) {
      ++c.jobs_terminal;
      continue;
    }
    state_.inflight.fetch_add(1);
    state_.push(encode_job(index, j));
    ++pushed;
  }
  ++active_campaigns_;
  if (enqueued != nullptr) *enqueued = pushed;
  if (pushed == 0 && c.jobs_terminal == c.manifest.jobs.size()) {
    // Every shard already exists (re-admitted root killed between the
    // last shard and the merge): merge inline so the campaign
    // completes without a worker touching it.
    if (!c.merge_claimed.exchange(true)) {
      auto merged = merge_campaign_shards(root);
      if (merged) {
        WorkerEvent event;
        event.campaign = index;
        event.job = 0;
        event.terminal = false;
        event.campaign_done = true;
        event.report_json = std::move(*merged);
        state_.post(std::move(event));
      }
    }
  }
  return Status::ok();
}

void Server::send_to(int fd, const std::string& bytes) {
  if (fd < 0) return;
  for (Client& client : clients_) {
    if (client.fd == fd) {
      client.outbuf += bytes;
      return;
    }
  }
}

void Server::handle_request(Client& client, Request request) {
  if (std::holds_alternative<RunRequest>(request.payload)) {
    auto& run = std::get<RunRequest>(request.payload);
    CampaignManifest manifest;
    manifest.jobs.push_back(std::move(run.job));
    std::size_t enqueued = 0;
    if (Status s = admit(run.id, std::move(manifest), client.fd, &enqueued);
        !s.is_ok()) {
      ++stats_.requests_rejected;
      client.outbuf += render_rejected(run.id, s);
      return;
    }
    ++stats_.campaigns_admitted;
    client.outbuf += render_accepted(run.id, 1);
  } else if (std::holds_alternative<CampaignRequest>(request.payload)) {
    auto& submit = std::get<CampaignRequest>(request.payload);
    const std::size_t jobs = submit.manifest.jobs.size();
    std::size_t enqueued = 0;
    if (Status s = admit(submit.id, std::move(submit.manifest), client.fd,
                         &enqueued);
        !s.is_ok()) {
      ++stats_.requests_rejected;
      client.outbuf += render_rejected(submit.id, s);
      return;
    }
    ++stats_.campaigns_admitted;
    client.outbuf += render_accepted(submit.id, jobs);
  } else if (std::holds_alternative<StatusRequest>(request.payload)) {
    const auto& status = std::get<StatusRequest>(request.payload);
    if (status.id.empty()) {
      client.outbuf += render_server_status();
      return;
    }
    const std::string root = options_.campaign_root + "/" + status.id;
    auto polled = poll_campaign_status(root);
    if (!polled) {
      client.outbuf += render_error(polled.status());
      return;
    }
    client.outbuf += render_campaign_status(status.id, *polled);
  } else if (std::holds_alternative<CancelRequest>(request.payload)) {
    const auto& cancel = std::get<CancelRequest>(request.payload);
    ServeCampaign* c = find_campaign(cancel.id);
    if (c == nullptr) {
      client.outbuf += render_error(make_status(
          StatusCode::kNotFound, "no active campaign '%s'",
          cancel.id.c_str()));
      return;
    }
    c->cancel_requested.store(true, std::memory_order_relaxed);
    c->token.cancel();
    client.outbuf += render_accepted(cancel.id, 0);
  } else {
    draining_ = true;
    drain_fd_ = client.fd;
    client.outbuf += render_accepted("", 0);
  }
}

void Server::handle_line(Client& client, std::string_view line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.empty()) return;
  Expected<Request> request = parse_request(line);
  if (!request) {
    ++stats_.requests_malformed;
    client.outbuf += render_error(request.status());
    return;
  }
  handle_request(client, *std::move(request));
}

std::string Server::render_server_status() {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kResponse);
  w.field("event", "status");
  w.key("server");
  w.begin_object();
  w.field("campaigns", static_cast<std::uint64_t>(state_.campaigns.size()));
  w.field("active", static_cast<std::uint64_t>(active_campaigns_));
  w.field("inflight_jobs",
          static_cast<std::uint64_t>(state_.inflight.load()));
  w.field("queue_depth", static_cast<std::uint64_t>(state_.queue_depth()));
  w.field("workers", static_cast<std::int64_t>(options_.workers));
  w.field("draining", draining_);
  w.end_object();
  w.end_object();
  return w.take() + "\n";
}

void Server::accept_clients() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    Client client;
    client.fd = fd;
    clients_.push_back(std::move(client));
  }
}

void Server::read_client(Client& client) {
  char buf[4096];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(client.fd, buf, sizeof(buf));
    if (n > 0) {
      client.inbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // EOF or hard error
    break;
  }
  // Process complete lines even on EOF: a submit-and-hang-up client
  // (nc style) still gets its campaign admitted.
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = client.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    handle_line(client,
                std::string_view(client.inbuf).substr(start, nl - start));
    start = nl + 1;
  }
  client.inbuf.erase(0, start);
  if (eof) {
    // Poison the fd (negative, recoverable) so the drop pass after the
    // poll loop closes it; queued events cannot misroute meanwhile.
    client.fd = -client.fd - 2;
  }
}

void Server::flush_client(Client& client) {
  while (!client.outbuf.empty()) {
    const ssize_t n =
        ::write(client.fd, client.outbuf.data(), client.outbuf.size());
    if (n > 0) {
      client.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    client.fd = -client.fd - 2;  // broken pipe: poison for drop
    return;
  }
}

void Server::drop_client(std::size_t index) {
  const int poisoned = clients_[index].fd;
  const int fd = poisoned >= 0 ? poisoned : -(poisoned + 2);
  for (ServeCampaign& c : state_.campaigns) {
    if (c.client_fd == fd) c.client_fd = -1;  // campaign continues headless
  }
  if (drain_fd_ == fd) drain_fd_ = -1;
  ::close(fd);
  clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(index));
}

void Server::process_events() {
  std::vector<WorkerEvent> events;
  {
    std::lock_guard<std::mutex> lock(state_.mutex);
    events.swap(state_.events);
  }
  for (WorkerEvent& event : events) {
    ServeCampaign& c = state_.campaigns[event.campaign];
    if (!event.error.empty()) {
      log(LogLevel::Warn, "serve: campaign '%s' job %zu: %s", c.id.c_str(),
          event.job, event.error.c_str());
    }
    if (event.terminal) {
      ++c.jobs_terminal;
      ++stats_.jobs_executed;
      state_.inflight.fetch_sub(1);
      send_to(c.client_fd,
              render_job_done(c.id, c.manifest.jobs[event.job].name,
                              event.outcome));
    } else if (!event.campaign_done) {
      // Abandoned (shutdown) or dropped on an infrastructure error;
      // the job stays on disk for the next start, not in our count.
      state_.inflight.fetch_sub(1);
    }
    if (event.campaign_done && !c.done) {
      c.done = true;
      --active_campaigns_;
      ++stats_.campaigns_completed;
      send_to(c.client_fd, render_report(c.id, event.report_json));
      log(LogLevel::Info, "serve: campaign '%s' complete (%zu job(s))",
          c.id.c_str(), c.manifest.jobs.size());
    }
  }
}

void Server::shutdown_workers() {
  state_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

Expected<ServeStats> Server::run() {
  if (options_.campaign_root.empty()) {
    return make_status(StatusCode::kInvalidArgument,
                       "serve: --campaign-root is required");
  }
  if (Status s = make_dir(options_.campaign_root); !s.is_ok()) return s;
  // Every job maps onto OSU018: extract its UDFM before the socket opens,
  // so no request pays for it.
  (void)shared_udfm(osu018_library());
  if (Status s = setup_socket(); !s.is_ok()) return s;

  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_NONBLOCK | O_CLOEXEC) != 0) {
    return make_status(StatusCode::kInternal, "serve: pipe2(): %s",
                       std::strerror(errno));
  }
  wake_read_ = wake[0];
  state_.wake_write = wake[1];

  const int workers = std::max(1, options_.workers);
  const int total = ThreadPool::resolve_threads(options_.total_threads);
  state_.inner_threads = ThreadPool::lanes_per_job(total, workers);
  log(LogLevel::Info,
      "serve: root %s, socket %s, %d worker(s), %d lane(s) each",
      options_.campaign_root.c_str(), options_.socket_path.c_str(), workers,
      state_.inner_threads);

  if (Status s = recover_campaigns(); !s.is_ok()) return s;

  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(state_, i); });
  }

  const int poll_ms = std::max<int>(
      1, static_cast<int>(options_.poll_interval.count() / 1000000));
  for (;;) {
    if (cancel_expired(options_.cancel)) {
      state_.server_token.cancel();
      break;
    }
    if (draining_ && state_.inflight.load() == 0 && active_campaigns_ == 0) {
      stats_.drained = true;
      break;
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_, POLLIN, 0});
    for (const Client& client : clients_) {
      short events = POLLIN;
      if (!client.outbuf.empty()) events |= POLLOUT;
      fds.push_back({client.fd, events, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_ms);
    if (rc < 0 && errno != EINTR) {
      state_.server_token.cancel();
      shutdown_workers();
      return make_status(StatusCode::kInternal, "serve: poll(): %s",
                         std::strerror(errno));
    }

    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_read_, drain, sizeof(drain)) > 0) {
      }
    }
    process_events();

    if ((fds[0].revents & POLLIN) != 0) accept_clients();
    for (std::size_t i = 0; i < clients_.size() && i + 2 < fds.size(); ++i) {
      Client& client = clients_[i];
      if (client.fd < 0) continue;
      const short revents = fds[i + 2].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_client(client);
      if (client.fd >= 0 && (revents & POLLOUT) != 0) flush_client(client);
      if (client.fd >= 0 && !client.outbuf.empty()) flush_client(client);
    }
    for (std::size_t i = clients_.size(); i-- > 0;) {
      if (clients_[i].fd < 0) drop_client(i);
    }
  }

  shutdown_workers();
  process_events();  // deliver results that raced the shutdown

  if (stats_.drained && drain_fd_ >= 0) {
    // Synchronous farewell: the drain requester gets the event even
    // though the poll loop is gone.
    const std::string bye = render_simple_event("drained");
    for (Client& client : clients_) {
      if (client.fd == drain_fd_) {
        client.outbuf += bye;
        int spins = 0;
        while (!client.outbuf.empty() && spins++ < 1000) {
          flush_client(client);
          if (client.fd < 0) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  }
  for (Client& client : clients_) {
    if (client.fd >= 0) ::close(client.fd);
  }
  clients_.clear();
  ::close(listen_fd_);
  ::close(wake_read_);
  ::close(state_.wake_write);
  ::unlink(options_.socket_path.c_str());
  log(LogLevel::Info,
      "serve: exit (%zu admitted, %zu recovered, %zu completed, %zu "
      "rejected, %s)",
      stats_.campaigns_admitted, stats_.campaigns_recovered,
      stats_.campaigns_completed, stats_.requests_rejected,
      stats_.drained ? "drained" : "cancelled");
  return stats_;
}

}  // namespace

Expected<ServeStats> run_serve(const ServeOptions& options) {
  Server server(options);
  return server.run();
}

}  // namespace dfmres
