/**
 * @file
 * Tests for the sweep service and its line protocol: request parsing,
 * store-hit byte-identity, fair scheduling, admission control with
 * backoff hints, deadlines, cooperative mid-run cancellation, drain
 * semantics, checker/fault composition, and a concurrent stress mix of
 * fresh/cached/cancelled/deadline-expired jobs (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/sweep.hh"
#include "common/json.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"

namespace gps
{
namespace
{

constexpr double smokeScale = 0.0625;

ServeJob
smokeJob(const std::string& client, std::uint64_t id,
         double scale = smokeScale, std::uint32_t wq_entries = 512)
{
    ServeJob job;
    job.clientId = client;
    job.id = id;
    job.workload = "Jacobi";
    job.config.paradigm = ParadigmKind::Gps;
    job.config.system.numGpus = 2;
    job.config.scale = scale;
    job.config.system.gps.wqEntries = wq_entries;
    return job;
}

/** Collects one response per submitted job; wakes waiters on arrival. */
class Collector
{
  public:
    SweepService::Callback
    callback()
    {
        return [this](const ServeResponse& r) {
            const std::lock_guard<std::mutex> lock(mu_);
            responses_.push_back(r);
            cv_.notify_all();
        };
    }

    std::vector<ServeResponse>
    waitFor(std::size_t count,
            std::chrono::seconds timeout = std::chrono::seconds(120))
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait_for(lk, timeout,
                     [&] { return responses_.size() >= count; });
        return responses_;
    }

    std::size_t
    count()
    {
        const std::lock_guard<std::mutex> lock(mu_);
        return responses_.size();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<ServeResponse> responses_;
};

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/gps_serve_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    return dir != nullptr ? dir : "/tmp/gps_serve_test_fallback";
}

// --- Basic service behavior -------------------------------------------

TEST(Serve, RunsAJobAndReturnsResultJson)
{
    SweepService service({/*workers=*/2, /*maxQueue=*/16, 0, ""});
    Collector collected;
    service.submit(smokeJob("c", 1), collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    const ServeResponse& r = responses.front();
    EXPECT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.id, 1u);
    EXPECT_FALSE(r.storeHit);
    EXPECT_GT(r.runMs, 0.0);

    std::string error;
    const auto doc = parseJson(r.payload, error);
    ASSERT_NE(doc, nullptr) << error;
    EXPECT_EQ(doc->string("workload"), "Jacobi");
    EXPECT_EQ(doc->string("paradigm"), "GPS");
}

TEST(Serve, StoreHitIsByteIdenticalAcrossRestart)
{
    const std::string dir = makeTempDir();
    std::string fresh;
    {
        SweepService service({2, 16, 0, dir});
        Collector collected;
        service.submit(smokeJob("c", 1), collected.callback());
        const auto responses = collected.waitFor(1);
        ASSERT_EQ(responses.size(), 1u);
        ASSERT_EQ(responses.front().status, JobStatus::Ok);
        EXPECT_FALSE(responses.front().storeHit);
        fresh = responses.front().payload;
        service.shutdown(false);
    }
    // A new service over the same store: the daemon was restarted.
    SweepService service({2, 16, 0, dir});
    Collector collected;
    service.submit(smokeJob("c", 2), collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.front().status, JobStatus::Ok);
    EXPECT_TRUE(responses.front().storeHit);
    EXPECT_EQ(responses.front().payload, fresh); // byte-identical
}

TEST(Serve, NoCacheSkipsLookupButStillPublishes)
{
    const std::string dir = makeTempDir();
    SweepService service({2, 16, 0, dir});
    Collector collected;
    ServeJob job = smokeJob("c", 1);
    job.noCache = true;
    service.submit(job, collected.callback());
    collected.waitFor(1);
    ServeJob again = smokeJob("c", 2);
    again.noCache = true;
    service.submit(again, collected.callback());
    const auto responses = collected.waitFor(2);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_FALSE(responses[0].storeHit);
    EXPECT_FALSE(responses[1].storeHit);
    // Both runs were executed fresh yet the result is on disk for
    // cache-enabled clients.
    EXPECT_GE(service.stats().store.publishes, 1u);
    EXPECT_EQ(responses[0].payload, responses[1].payload);
}

// --- Checker / fault composition --------------------------------------

TEST(Serve, CheckerStaysGreenUnderInjectedLinkFaults)
{
    SweepService service({2, 16, 0, ""});
    Collector collected;
    ServeJob job = smokeJob("c", 1);
    job.config.system.numGpus = 4;
    job.config.check.enabled = true;
    job.config.faultPlan.addSpec("link:down@500us:gpu0-gpu1");
    job.config.faultPlan.addSpec("link:degrade@250us:2-3:0.5");
    service.submit(job, collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    // The reference model tracks the rerouted execution: faults alone
    // must not read as divergence.
    EXPECT_EQ(responses.front().status, JobStatus::Ok)
        << responses.front().errorType << ": "
        << responses.front().errorMessage;
}

TEST(Serve, CheckDivergenceIsPerJobErrorNotPoolAbort)
{
    const std::string dir = makeTempDir();
    SweepService service({2, 16, 0, dir});
    Collector collected;
    service.submit(smokeJob("c", 1), collected.callback());
    ServeJob mutated = smokeJob("c", 2, smokeScale, 256);
    mutated.config.check.enabled = true;
    mutated.config.check.testMutation = 1; // seeded reference defect
    service.submit(mutated, collected.callback());
    service.submit(smokeJob("c", 3, smokeScale, 128),
                   collected.callback());

    const auto responses = collected.waitFor(3);
    ASSERT_EQ(responses.size(), 3u);
    std::size_t ok = 0;
    for (const ServeResponse& r : responses) {
        if (r.id == 2) {
            EXPECT_EQ(r.status, JobStatus::Error);
            EXPECT_EQ(r.errorType, "CheckDivergence");
            EXPECT_FALSE(r.errorMessage.empty());
        } else {
            EXPECT_EQ(r.status, JobStatus::Ok) << r.errorMessage;
            ++ok;
        }
    }
    // Sibling jobs completed normally: no pool abort.
    EXPECT_EQ(ok, 2u);
    // The diverged result was never published to the store.
    EXPECT_EQ(service.stats().store.publishes, 2u);
}

TEST(Serve, RunExceptionBecomesStructuredError)
{
    SweepService service({1, 16, 0, ""});
    Collector collected;
    ServeJob job = smokeJob("c", 1);
    job.workload = "NoSuchWorkload";
    service.submit(job, collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.front().status, JobStatus::Error);
    EXPECT_FALSE(responses.front().errorType.empty());
    EXPECT_FALSE(responses.front().errorMessage.empty());
}

// --- Scheduling: fairness, admission, deadlines, cancellation ---------

TEST(Serve, FairQueueingInterleavesClients)
{
    // One worker; client A floods 6 jobs, then B submits one. Fair
    // round-robin must run B's job before A's backlog is exhausted.
    SweepService service({1, 64, 0, ""});
    Collector collected;
    std::mutex order_mu;
    std::vector<std::string> completion_order;
    const auto record = [&](const ServeResponse& r) {
        const std::lock_guard<std::mutex> lock(order_mu);
        completion_order.push_back(r.clientId);
    };
    for (std::uint64_t i = 1; i <= 6; ++i)
        service.submit(smokeJob("A", i),
                       [&, cb = collected.callback()](
                           const ServeResponse& r) {
                           record(r);
                           cb(r);
                       });
    service.submit(smokeJob("B", 100),
                   [&, cb = collected.callback()](
                       const ServeResponse& r) {
                       record(r);
                       cb(r);
                   });
    collected.waitFor(7);
    std::size_t b_pos = 0;
    {
        const std::lock_guard<std::mutex> lock(order_mu);
        ASSERT_EQ(completion_order.size(), 7u);
        for (std::size_t i = 0; i < completion_order.size(); ++i) {
            if (completion_order[i] == "B")
                b_pos = i;
        }
    }
    // B must not be starved to the end of A's flood.
    EXPECT_LT(b_pos, 4u);
}

TEST(Serve, QueueFullIsRejectedWithRetryAfterHint)
{
    SweepService service({1, /*maxQueue=*/2, 0, ""});
    Collector collected;
    std::size_t rejected = 0;
    std::uint64_t hint = 0;
    // Flood far past the bound; excess must be shed synchronously.
    for (std::uint64_t i = 1; i <= 12; ++i)
        service.submit(smokeJob("c", i),
                       [&, cb = collected.callback()](
                           const ServeResponse& r) {
                           if (r.status == JobStatus::Rejected) {
                               ++rejected;
                               hint = r.retryAfterMs;
                           }
                           cb(r);
                       });
    const auto responses = collected.waitFor(12);
    ASSERT_EQ(responses.size(), 12u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GE(hint, 1u); // Retry-After-style backoff, never zero
    EXPECT_EQ(service.stats().rejected, rejected);
}

TEST(Serve, DeadlineExpiredWhileQueuedNeverRuns)
{
    SweepService service({1, 64, 0, ""});
    Collector collected;
    // Occupy the single worker with a long run, then enqueue a job
    // whose deadline lapses while it waits.
    service.submit(smokeJob("c", 1, /*scale=*/0.5),
                   collected.callback());
    ServeJob doomed = smokeJob("c", 2);
    doomed.deadlineMs = 1;
    service.submit(doomed, collected.callback());
    const auto responses = collected.waitFor(2);
    ASSERT_EQ(responses.size(), 2u);
    for (const ServeResponse& r : responses) {
        if (r.id == 2) {
            EXPECT_EQ(r.status, JobStatus::DeadlineExpired);
            EXPECT_EQ(r.errorType, "DeadlineExpired");
            EXPECT_EQ(r.runMs, 0.0); // never started
        }
    }
    EXPECT_EQ(service.stats().expired, 1u);
}

TEST(Serve, MidRunDeadlineCancelsCooperatively)
{
    SweepService service({1, 64, 0, ""});
    Collector collected;
    ServeJob job = smokeJob("c", 1, /*scale=*/2.0);
    job.deadlineMs = 30; // lapses mid-run, not while queued
    service.submit(job, collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.front().status, JobStatus::DeadlineExpired);
    // The Runner observed the token and unwound before finishing.
    EXPECT_GT(responses.front().runMs, 0.0);
}

TEST(Serve, CancelReachesPendingAndRunningJobs)
{
    SweepService service({1, 64, 0, ""});
    Collector collected;
    // Long-running job to cancel mid-run.
    service.submit(smokeJob("c", 7, /*scale=*/2.0),
                   collected.callback());
    // Wait until it is actually running so the cancel exercises the
    // token path rather than the queue-removal path.
    for (int i = 0; i < 2000 && service.stats().running == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.stats().running, 1u);
    // Plus two queued jobs under the same id from the same client.
    service.submit(smokeJob("c", 7), collected.callback());
    service.submit(smokeJob("c", 7), collected.callback());
    // And one unrelated job that must survive.
    service.submit(smokeJob("c", 8), collected.callback());

    const std::size_t reached = service.cancel("c", 7);
    EXPECT_EQ(reached, 3u);

    const auto responses = collected.waitFor(4);
    ASSERT_EQ(responses.size(), 4u);
    for (const ServeResponse& r : responses) {
        if (r.id == 7) {
            EXPECT_EQ(r.status, JobStatus::Cancelled) << r.errorMessage;
        } else {
            EXPECT_EQ(r.status, JobStatus::Ok) << r.errorMessage;
        }
    }
    EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(Serve, CancelForAnotherClientReachesNothing)
{
    SweepService service({1, 64, 0, ""});
    Collector collected;
    service.submit(smokeJob("alice", 1, /*scale=*/0.5),
                   collected.callback());
    EXPECT_EQ(service.cancel("mallory", 1), 0u);
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.front().status, JobStatus::Ok);
}

// --- Drain semantics ---------------------------------------------------

TEST(Serve, DrainWithoutCancelFinishesAcceptedWork)
{
    SweepService service({2, 64, 0, ""});
    Collector collected;
    for (std::uint64_t i = 1; i <= 5; ++i)
        service.submit(smokeJob("c", i), collected.callback());
    service.shutdown(/*cancelPending=*/false);
    const auto responses = collected.waitFor(5);
    ASSERT_EQ(responses.size(), 5u);
    for (const ServeResponse& r : responses)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.errorMessage;
}

TEST(Serve, DrainWithCancelAnswersBacklogAndFinishesInFlight)
{
    SweepService service({1, 64, 0, ""});
    Collector collected;
    service.submit(smokeJob("c", 1, /*scale=*/0.5),
                   collected.callback());
    for (int i = 0; i < 2000 && service.stats().running == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::uint64_t i = 2; i <= 5; ++i)
        service.submit(smokeJob("c", i), collected.callback());
    service.shutdown(/*cancelPending=*/true);
    const auto responses = collected.waitFor(5);
    ASSERT_EQ(responses.size(), 5u);
    std::size_t ok = 0, cancelled = 0;
    for (const ServeResponse& r : responses) {
        ok += r.status == JobStatus::Ok ? 1 : 0;
        cancelled += r.status == JobStatus::Cancelled ? 1 : 0;
    }
    // The in-flight run finished; the backlog was answered Cancelled.
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cancelled, 4u);
}

TEST(Serve, SubmitAfterDrainIsRejected)
{
    SweepService service({1, 64, 0, ""});
    service.beginDrain(true);
    Collector collected;
    service.submit(smokeJob("c", 1), collected.callback());
    const auto responses = collected.waitFor(1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.front().status, JobStatus::Rejected);
    EXPECT_EQ(responses.front().errorType, "ShuttingDown");
}

// --- Concurrency stress (TSan target) ---------------------------------

TEST(Serve, ConcurrentStressMixedOutcomes)
{
    // >= 200 requests from parallel submitters, mixing fresh configs,
    // store-hit duplicates, mid-run/pending cancellations and expired
    // deadlines, with a store in the loop. Every submission must get
    // exactly one response; no response may be torn or dropped. CI
    // additionally runs this binary under TSan (zero races).
    const std::string dir = makeTempDir();
    SweepService service({4, 512, 0, dir});

    constexpr std::size_t clients = 8;
    constexpr std::size_t perClient = 26; // 208 total
    std::atomic<std::size_t> responded{0};
    std::atomic<std::size_t> byStatus[5] = {};

    std::vector<std::thread> submitters;
    for (std::size_t c = 0; c < clients; ++c) {
        submitters.emplace_back([&, c] {
            const std::string client = "client" + std::to_string(c);
            for (std::size_t i = 0; i < perClient; ++i) {
                // A few distinct configs per client so the mix has
                // both fresh runs and (cross-client) store hits.
                ServeJob job = smokeJob(
                    client, i,
                    smokeScale,
                    static_cast<std::uint32_t>(64 << (i % 4)));
                if (i % 13 == 5)
                    job.deadlineMs = 1; // will expire under load
                service.submit(
                    job, [&](const ServeResponse& r) {
                        byStatus[static_cast<std::size_t>(r.status)]
                            .fetch_add(1, std::memory_order_relaxed);
                        responded.fetch_add(1,
                                            std::memory_order_relaxed);
                    });
                if (i % 7 == 3)
                    service.cancel(client, i); // racy on purpose
            }
        });
    }
    for (std::thread& t : submitters)
        t.join();
    service.shutdown(/*cancelPending=*/false);

    constexpr std::size_t total = clients * perClient;
    EXPECT_EQ(responded.load(), total);
    EXPECT_EQ(service.stats().submitted, total);
    const std::size_t ok =
        byStatus[static_cast<std::size_t>(JobStatus::Ok)].load();
    const std::size_t accounted =
        ok +
        byStatus[static_cast<std::size_t>(JobStatus::Error)].load() +
        byStatus[static_cast<std::size_t>(JobStatus::Cancelled)].load() +
        byStatus[static_cast<std::size_t>(JobStatus::DeadlineExpired)]
            .load() +
        byStatus[static_cast<std::size_t>(JobStatus::Rejected)].load();
    EXPECT_EQ(accounted, total);
    EXPECT_GT(ok, 0u);
    // The duplicate configs across 8 clients guarantee store hits.
    EXPECT_GT(service.stats().storeHits, 0u);
    EXPECT_EQ(service.stats().store.quarantined, 0u);
}

// --- Protocol layer ----------------------------------------------------

TEST(ServeProtocol, ParsesRunRequest)
{
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"id":9,"method":"run","params":{"app":"Jacobi",)"
        R"("paradigm":"GPS","gpus":2,"scale":0.25,"deadline_ms":500}})",
        request, error))
        << error;
    EXPECT_EQ(request.id, 9u);
    ASSERT_EQ(request.jobs.size(), 1u);
    EXPECT_EQ(request.jobs[0].workload, "Jacobi");
    EXPECT_EQ(request.jobs[0].config.system.numGpus, 2u);
    EXPECT_EQ(request.jobs[0].deadlineMs, 500u);
}

TEST(ServeProtocol, ParsesBatchWithIndices)
{
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"id":3,"method":"batch","params":{"jobs":[)"
        R"({"app":"Jacobi"},{"app":"NBody","gpus":8}]}})",
        request, error))
        << error;
    ASSERT_EQ(request.jobs.size(), 2u);
    EXPECT_EQ(request.jobs[0].index, 0u);
    EXPECT_EQ(request.jobs[1].index, 1u);
    EXPECT_EQ(request.jobs[1].config.system.numGpus, 8u);
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    const char* bad[] = {
        "not json at all",
        "[1,2,3]",
        R"({"id":1})",
        R"({"id":1,"method":"frobnicate"})",
        R"({"id":1,"method":"run"})",
        R"({"id":1,"method":"run","params":{}})",
        R"({"id":1,"method":"run","params":{"app":"Jacobi","gpus":0}})",
        R"({"id":1,"method":"run","params":{"app":"J","paradigm":"X"}})",
        R"({"id":1,"method":"batch","params":{"jobs":[]}})",
        R"({"id":1,"method":"cancel"})",
    };
    for (const char* line : bad) {
        ServeRequest request;
        std::string error;
        EXPECT_FALSE(parseServeRequest(line, request, error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(ServeProtocol, RejectsScaleOutsideValidRange)
{
    // 1e999 parses to infinity; neither it nor 1e300 can size an app.
    for (const char* scale : {"0", "-1", "1e999", "-1e999", "1e300"}) {
        ServeRequest request;
        std::string error;
        EXPECT_FALSE(parseServeRequest(
            std::string(R"({"id":1,"method":"run","params":{"app":"Jacobi",)"
                        R"("scale":)") +
                scale + "}}",
            request, error))
            << scale;
        EXPECT_NE(error.find("scale"), std::string::npos) << error;
    }
}

TEST(ServeProtocol, RejectsNonIntegralOrOutOfRangeNumbers)
{
    // Integers arrive as JSON doubles. A negative, fractional, infinite,
    // too large or mistyped one is rejected naming its key, never cast.
    const std::pair<const char*, const char*> bad[] = {
        {R"("gpus":-1)", "gpus"},
        {R"("gpus":2.5)", "gpus"},
        {R"("gpus":1e300)", "gpus"},
        {R"("gpus":"8")", "gpus"},
        {R"("page_kb":-64)", "page_kb"},
        {R"("page_kb":1e19)", "page_kb"},
        {R"("wq_entries":4294967296)", "wq_entries"},
        {R"("wq_entries":0.5)", "wq_entries"},
        {R"("steady_iterations":-1)", "steady_iterations"},
        {R"("steady_iterations":1e999)", "steady_iterations"},
        {R"("deadline_ms":-5)", "deadline_ms"},
        {R"("deadline_ms":1e300)", "deadline_ms"},
        {R"("scale":"0.5")", "scale"},
        {R"("paradigm":5)", "paradigm"},
        {R"("check":1)", "check"},
        {R"("no_cache":"true")", "no_cache"},
    };
    for (const auto& [field, key] : bad) {
        ServeRequest request;
        std::string error;
        EXPECT_FALSE(parseServeRequest(
            std::string(R"({"id":1,"method":"run","params":{"app":"Jacobi",)") +
                field + "}}",
            request, error))
            << field;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
    for (const std::string id : {"-1", "1.5", "1e300", R"("7")"}) {
        ServeRequest request;
        std::string error;
        EXPECT_FALSE(parseServeRequest(
            R"({"id":)" + id + R"(,"method":"ping"})", request, error))
            << id;
        EXPECT_NE(error.find("\"id\""), std::string::npos) << error;
        EXPECT_FALSE(parseServeRequest(
            R"({"id":1,"method":"cancel","params":{"id":)" + id + "}}",
            request, error))
            << id;
        EXPECT_NE(error.find("\"id\""), std::string::npos) << error;
    }

    // The largest values that fit each field still parse exactly.
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"id":9007199254740992,"method":"run","params":{"app":"Jacobi",)"
        R"("wq_entries":4294967295,"steady_iterations":0,)"
        R"("deadline_ms":1000000000000}})",
        request, error))
        << error;
    EXPECT_EQ(request.id, std::uint64_t{1} << 53);
    ASSERT_EQ(request.jobs.size(), 1u);
    EXPECT_EQ(request.jobs[0].config.system.gps.wqEntries, 4294967295u);
    EXPECT_EQ(request.jobs[0].config.steadyIterations, 0u);
    EXPECT_EQ(request.jobs[0].deadlineMs, maxDeadlineMs);
}

TEST(ServeProtocol, ResponseJsonSplicesPayloadVerbatim)
{
    ServeResponse r;
    r.id = 4;
    r.index = 1;
    r.status = JobStatus::Ok;
    r.payload = R"({"total_time_ms":1.5,"nested":{"a":[1,2]}})";
    const std::string line = responseToJson(r);
    EXPECT_NE(line.find("\"result\":" + r.payload), std::string::npos)
        << line;
    std::string error;
    EXPECT_NE(parseJson(line, error), nullptr) << error;
}

TEST(ServeProtocol, ErrorResponseCarriesTypeAndMessage)
{
    ServeResponse r;
    r.id = 5;
    r.status = JobStatus::Error;
    r.errorType = "CheckDivergence";
    r.errorMessage = "counter mismatch";
    const std::string line = responseToJson(r);
    EXPECT_NE(line.find("\"type\":\"CheckDivergence\""),
              std::string::npos);
    EXPECT_NE(line.find("\"message\":\"counter mismatch\""),
              std::string::npos);
    EXPECT_EQ(line.find("\"result\""), std::string::npos);
}

TEST(ServeProtocol, LineProtocolDrivesServiceEndToEnd)
{
    SweepService service({2, 16, 0, ""});
    LineProtocol protocol(service);
    std::mutex mu;
    std::vector<std::string> lines;
    const LineProtocol::Write write = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(mu);
        lines.push_back(line);
    };

    EXPECT_EQ(protocol.handleLine("t", R"({"id":1,"method":"ping"})",
                                  write),
              LineProtocol::Action::None);
    EXPECT_EQ(protocol.handleLine("t", "   ", write),
              LineProtocol::Action::None); // blank lines tolerated
    EXPECT_EQ(protocol.handleLine("t", "garbage", write),
              LineProtocol::Action::None);
    EXPECT_EQ(protocol.handleLine(
                  "t",
                  R"({"id":2,"method":"run","params":{"app":"Jacobi",)"
                      R"("gpus":2,"scale":0.0625}})",
                  write),
              LineProtocol::Action::None);
    service.shutdown(/*cancelPending=*/false);
    EXPECT_EQ(protocol.handleLine("t", R"({"id":3,"method":"shutdown"})",
                                  write),
              LineProtocol::Action::Shutdown);

    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(lines[1].find("BadRequest"), std::string::npos);
    // The run's response arrived before shutdown's ack (drain waited).
    EXPECT_NE(lines[2].find("\"id\":2"), std::string::npos);
    EXPECT_NE(lines[2].find("\"result\":{"), std::string::npos);
    EXPECT_NE(lines[3].find("\"shutting_down\":true"),
              std::string::npos);
}

TEST(ServeProtocol, MetricsVerbExposesServiceCounters)
{
    SweepService service({2, 16, 0, ""});
    LineProtocol protocol(service);
    std::mutex mu;
    std::vector<std::string> lines;
    const LineProtocol::Write write = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(mu);
        lines.push_back(line);
    };

    protocol.handleLine(
        "t",
        R"({"id":1,"method":"run","params":{"app":"Jacobi",)"
            R"("gpus":2,"scale":0.0625}})",
        write);
    service.awaitIdle();
    protocol.handleLine("t", R"({"id":2,"method":"metrics"})", write);

    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(lines.size(), 2u);
    const std::string& metrics = lines[1];
    std::string error;
    const auto doc = parseJson(metrics, error);
    ASSERT_NE(doc, nullptr) << error;
    EXPECT_EQ(doc->string("status"), "ok");
    const JsonValue* list = doc->find("metrics");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    double submitted = -1.0, completed = -1.0;
    bool run_latency = false;
    for (const JsonValue& m : list->items()) {
        const std::string name = m.string("name");
        if (name == "serve.jobs.submitted")
            submitted = m.number("value", -1.0);
        if (name == "serve.jobs.completed")
            completed = m.number("value", -1.0);
        if (name == "serve.verb.run.latency_p99")
            run_latency = true;
    }
    EXPECT_DOUBLE_EQ(submitted, 1.0);
    EXPECT_DOUBLE_EQ(completed, 1.0);
    EXPECT_TRUE(run_latency);
    service.shutdown(false);
}

TEST(ServeProtocol, StatsReportsVerbLatencies)
{
    SweepService service({1, 16, 0, ""});
    LineProtocol protocol(service);
    std::mutex mu;
    std::vector<std::string> lines;
    const LineProtocol::Write write = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(mu);
        lines.push_back(line);
    };

    protocol.handleLine("t", R"({"id":1,"method":"ping"})", write);
    protocol.handleLine("t", R"({"id":2,"method":"ping"})", write);
    protocol.handleLine("t", R"({"id":3,"method":"stats"})", write);
    // The stats verb's own latency lands after its response; a second
    // stats call observes it.
    protocol.handleLine("t", R"({"id":4,"method":"stats"})", write);

    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(lines.size(), 4u);
    std::string error;
    const auto doc = parseJson(lines[3], error);
    ASSERT_NE(doc, nullptr) << error;
    const JsonValue* stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->find("timeline_dropped"), nullptr);
    const JsonValue* verbs = stats->find("verbs");
    ASSERT_NE(verbs, nullptr);
    const JsonValue* ping = verbs->find("ping");
    ASSERT_NE(ping, nullptr);
    EXPECT_DOUBLE_EQ(ping->number("count", 0.0), 2.0);
    const JsonValue* stats_verb = verbs->find("stats");
    ASSERT_NE(stats_verb, nullptr);
    EXPECT_GE(stats_verb->number("count", 0.0), 1.0);
    service.shutdown(false);
}

TEST(ServeProtocol, JobSpecTimelineFlagFeedsDroppedAccounting)
{
    // The spec's "timeline" flag turns the run's recorder on.
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"id":1,"method":"run","params":{"app":"Jacobi",)"
            R"("gpus":2,"scale":0.0625,"timeline":true}})",
        request, error))
        << error;
    ASSERT_EQ(request.jobs.size(), 1u);
    EXPECT_TRUE(request.jobs.front().config.obs.timeline);

    // A run with a one-event cap must overflow, and the dropped count
    // surfaces in the service stats.
    SweepService service({1, 16, 0, ""});
    Collector collected;
    ServeJob job = smokeJob("c", 1);
    job.config.obs.timeline = true;
    job.config.obs.maxTimelineEvents = 1;
    service.submit(std::move(job), collected.callback());
    collected.waitFor(1);
    service.awaitIdle();
    EXPECT_GT(service.stats().timelineDropped, 0u);
    service.shutdown(false);
}

TEST(ServeProtocol, NameParsersMatchCliSpellings)
{
    EXPECT_EQ(interconnectFromName("pcie3"), InterconnectKind::Pcie3);
    EXPECT_EQ(interconnectFromName("nvlink3"),
              InterconnectKind::NvLink3);
    EXPECT_EQ(paradigmFromName("GPS"), ParadigmKind::Gps);
    EXPECT_EQ(paradigmFromName("Infinite"), ParadigmKind::InfiniteBw);
    EXPECT_THROW(interconnectFromName("token-ring"), FatalError);
    EXPECT_THROW(paradigmFromName("magic"), FatalError);
}

// --- Cancellation primitive -------------------------------------------

TEST(CancelToken, FirstReasonWinsAndDeadlineLatches)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());
    token.cancel(CancelReason::Cancelled);
    token.cancel(CancelReason::DeadlineExpired); // ignored: first wins
    EXPECT_TRUE(token.cancelled());
    try {
        token.throwIfCancelled();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.reason(), CancelReason::Cancelled);
    }

    CancelToken deadline;
    deadline.setDeadline(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
    EXPECT_EQ(deadline.poll(), CancelReason::DeadlineExpired);
    try {
        deadline.throwIfCancelled();
        FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
        EXPECT_EQ(e.reason(), CancelReason::DeadlineExpired);
    }
}

TEST(CancelToken, CancelledRunReportsStructuredError)
{
    // runSweepJob maps a token fired before the run into the
    // structured (type, message) error channel — satellite S1.
    SweepJob job;
    job.workload = "Jacobi";
    job.config.system.numGpus = 2;
    job.config.scale = smokeScale;
    job.config.cancel = std::make_shared<CancelToken>();
    job.config.cancel->cancel(CancelReason::Cancelled);
    const SweepOutcome out = runSweepJob(job);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.errorType, "Cancelled");
    EXPECT_FALSE(out.errorText().empty());
}

} // namespace
} // namespace gps
