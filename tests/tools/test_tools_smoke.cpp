// Smoke tests for the CLI tools: run each binary end-to-end against a
// generated acquisition and check exit codes and observable outputs.
// The tool binaries are located relative to this test executable
// (build/tests/... -> build/tools/...).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "dassa/common/telemetry.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/serve/socket.hpp"
#include "testing/tmpdir.hpp"

namespace dassa {
namespace {

using testing::TmpDir;

std::string tools_dir() {
  // CMake binary layout: <build>/tests/<test>, <build>/tools/<tool>.
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path().parent_path() / "tools").string();
}

int run(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

/// A one-file acquisition for das_serve to serve; returns its path.
std::string generate_archive(const TmpDir& dir) {
  EXPECT_EQ(run(tools_dir() + "/das_generate --dir " + dir.str() +
                " --channels 8 --rate 20 --files 1 --seconds-per-file 2 "
                "--start 170728224510"),
            0);
  return dir.file("das_170728224510.dh5");
}

/// Start `sh -c script` in the background (so `script` can set limits
/// and then exec a daemon under them); returns the pid.
pid_t spawn_shell(const std::string& script) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", script.c_str(), nullptr);
    ::_exit(127);
  }
  return pid;
}

/// Exit code of a child, 128 + signal if a signal ended it.
int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

class ToolsSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TmpDir("tools");
    out_ = new TmpDir("tools_out");
    ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + dir_->str() +
                  " --channels 16 --rate 20 --files 4 "
                  "--seconds-per-file 2 --start 170728224510"),
              0);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
    delete out_;
    out_ = nullptr;
  }
  /// The acquisition: only das_generate writes here, because
  /// das_analyze --dir and the catalog scans read every file in it.
  static TmpDir* dir_;
  /// Everything the tests write.
  static TmpDir* out_;
};

TmpDir* ToolsSmokeTest::dir_ = nullptr;
TmpDir* ToolsSmokeTest::out_ = nullptr;

TEST_F(ToolsSmokeTest, GenerateProducedReadableFiles) {
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.shape(), (Shape2D{16, 40}));
  }
  EXPECT_EQ(count, 4u);
}

TEST_F(ToolsSmokeTest, SearchRangeAndRegexExitCodes) {
  const std::string bin = tools_dir() + "/das_search --dir " + dir_->str();
  EXPECT_EQ(run(bin + " -s 170728224510 -c 2"), 0);
  EXPECT_EQ(run(bin + " -e '1707282245[01][02]'"), 0);
  EXPECT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str()), 2);  // no query
}

TEST_F(ToolsSmokeTest, SearchSavesLoadableVcaAndRca) {
  const std::string vca_path = out_->file("merged.vca");
  const std::string rca_path = out_->file("merged.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str() +
                " -s 170728224510 -c 4 --save-vca " + vca_path +
                " --save-rca " + rca_path),
            0);
  io::Vca vca = io::Vca::load(vca_path);
  EXPECT_EQ(vca.shape(), (Shape2D{16, 160}));
  io::Dash5File rca(rca_path);
  EXPECT_EQ(rca.shape(), (Shape2D{16, 160}));
  EXPECT_EQ(vca.read_all(), rca.read_all());
}

TEST_F(ToolsSmokeTest, InfoRunsOnBothFormats) {
  ASSERT_EQ(run(tools_dir() + "/das_search --dir " + dir_->str() +
                " -s 170728224510 -c 4 --save-vca " + out_->file("i.vca")),
            0);
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(run(tools_dir() + "/das_info " + first), 0);
  EXPECT_EQ(run(tools_dir() + "/das_info " + out_->file("i.vca")), 0);
  EXPECT_EQ(run(tools_dir() + "/das_info /nonexistent.dh5"), 1);
}

TEST_F(ToolsSmokeTest, AnalyzeSimilarityWritesOutput) {
  const std::string out = out_->file("sim_out.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 2 --cores 2 --out " + out),
            0);
  io::Dash5File f(out);
  EXPECT_EQ(f.shape(), (Shape2D{16, 160}));
}

TEST_F(ToolsSmokeTest, AnalyzeInterferometryWritesOutput) {
  const std::string out = out_->file("intf_out.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline interferometry --band-lo 1 --band-hi 8 "
                "--resample-down 2 --out " + out),
            0);
  io::Dash5File f(out);
  EXPECT_EQ(f.shape(), (Shape2D{16, 1}));
}

TEST_F(ToolsSmokeTest, RepackCompressesAndVerifiesRoundtrip) {
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(first.empty());
  const std::string v3 = out_->file("repacked_v3.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_repack " + first + " " + v3 +
                " --codec shuffle+lz --chunk 4x16 --verify"),
            0);
  io::Dash5File f(v3);
  EXPECT_EQ(f.version(), 3);
  EXPECT_EQ(f.codec().str(), "shuffle+lz");
  EXPECT_EQ(f.chunk(), (io::ChunkShape{4, 16}));
  EXPECT_EQ(f.read_all(), io::Dash5File(first).read_all());

  // And back to a plain contiguous v2 file, still bit-exact.
  const std::string back = out_->file("repacked_back.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_repack " + v3 + " " + back +
                " --contiguous --verify"),
            0);
  io::Dash5File b(back);
  EXPECT_EQ(b.version(), 2);
  EXPECT_EQ(b.layout(), io::Layout::kContiguous);
  EXPECT_EQ(b.read_all(), f.read_all());
  EXPECT_EQ(run(tools_dir() + "/das_info " + v3), 0);
}

TEST_F(ToolsSmokeTest, RepackRejectsBadInvocations) {
  EXPECT_EQ(run(tools_dir() + "/das_repack only_one_arg.dh5"), 2);
  const std::string out = out_->file("never.dh5");
  std::string first;
  for (const auto& e : std::filesystem::directory_iterator(dir_->str())) {
    if (e.path().extension() == ".dh5") {
      first = e.path().string();
      break;
    }
  }
  // --contiguous cannot carry a codec chain.
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --contiguous --codec lz"),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --codec nonsense"),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_repack " + first + " " + out +
                " --chunk 4by16"),
            1);
}

TEST_F(ToolsSmokeTest, GenerateWithCodecEmitsReadableV3Files) {
  TmpDir v3dir("tools_v3gen");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + v3dir.str() +
                " --channels 8 --rate 50 --files 1 --seconds-per-file 2 "
                "--start 170728224510 --codec shuffle+lz --chunk 4x32 "
                "--quantize 0.0078125"),
            0);
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(v3dir.str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.version(), 3);
    EXPECT_EQ(f.shape(), (Shape2D{8, 100}));
    EXPECT_EQ(f.codec().str(), "shuffle+lz");
    EXPECT_EQ(f.read_all().size(), 800u);
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(ToolsSmokeTest, AnalyzeTelemetryProducesValidHealthFile) {
  // The acceptance run: >= 4 ranks, telemetry file out, then the file
  // must read back through the strict reader with one snapshot per
  // rank, from which the cluster view is derived.
  const std::string tele = out_->file("run.tlm");
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 4 --cores 2 --telemetry " + tele +
                " --telemetry-period-ms 5 --out " +
                out_->file("tele_out.dh5")),
            0);

  const telemetry::TelemetryFile file = telemetry::read_telemetry_file(tele);
  EXPECT_EQ(file.meta.at("tool"), "das_analyze");
  EXPECT_EQ(file.meta.at("world_size"), "4");
  ASSERT_EQ(file.ranks.size(), 4u);
  ASSERT_FALSE(file.timeline.empty());

  const ClusterTelemetry cluster = reduce_ranks(file.ranks);
  EXPECT_EQ(cluster.counters.at("haee.rows_owned").sum,
            16u);  // every channel owned exactly once
  for (const char* stage : {"haee.stage.read_ns", "haee.stage.compute_ns"}) {
    EXPECT_GT(cluster.counters.at(stage).max, 0u) << stage;
  }
  for (const auto& [name, agg] : cluster.counters) {
    EXPECT_GE(agg.imbalance(cluster.world_size), 1.0) << name;
  }
  // Merged stage histogram: one stage clock per rank and stage.
  EXPECT_GE(cluster.hists.at("haee.stage_ns").count, 8u);

  // das_top --file checks the same file and renders its report.
  EXPECT_EQ(run(tools_dir() + "/das_top --file " + tele), 0);
  EXPECT_EQ(run(tools_dir() + "/das_top --file " + out_->file("absent.tlm")),
            1);
  EXPECT_EQ(run(tools_dir() + "/das_top"), 2);

  // Flip one byte in the middle: das_top must now reject the file.
  std::string bytes;
  {
    std::ifstream in(tele, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    bytes = text.str();
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  const std::string bad = out_->file("bad.tlm");
  {
    std::ofstream out(bad, std::ios::binary);
    out << bytes;
  }
  EXPECT_EQ(run(tools_dir() + "/das_top --file " + bad), 1);
}

TEST_F(ToolsSmokeTest, AnalyzeRejectsUnknownPipeline) {
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline nonsense"),
            2);
}

TEST_F(ToolsSmokeTest, AnalyzeRequiresExplicitOut) {
  // No silent CWD artifact: an analysis pipeline without --out/-o is a
  // usage error, and nothing is written anywhere.
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline similarity --window-half 4 --lag-half 2"),
            2);
  EXPECT_FALSE(std::filesystem::exists("das_analyze_out.dh5"));
  // qc prints to stdout and legitimately needs no output path.
  EXPECT_EQ(run(tools_dir() + "/das_analyze --dir " + dir_->str() +
                " --pipeline qc"),
            0);
}

TEST_F(ToolsSmokeTest, GenerateStreamDeliversWholeFiles) {
  // --stream stages each file and renames it into the spool, so a
  // watcher never sees a half-written acquisition; the staging area
  // must be gone afterwards.
  TmpDir spool("tools_stream");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + spool.str() +
                " --channels 8 --rate 20 --files 3 --seconds-per-file 2 "
                "--start 170728224510 --stream"),
            0);
  EXPECT_FALSE(std::filesystem::exists(spool.str() + "/.staging"));
  std::size_t count = 0;
  for (const auto& e : std::filesystem::directory_iterator(spool.str())) {
    if (e.path().extension() != ".dh5") continue;
    ++count;
    io::Dash5File f(e.path().string());
    EXPECT_EQ(f.shape(), (Shape2D{8, 40}));
  }
  EXPECT_EQ(count, 3u);
}

TEST_F(ToolsSmokeTest, IngestOnceMatchesAnalyzeByteForByte) {
  // The streaming acceptance criterion, end to end through the CLIs:
  // das_ingest --once over a spool must write the same container, byte
  // for byte, as the offline das_analyze run over the same directory.
  TmpDir spool("tools_ingest");
  ASSERT_EQ(run(tools_dir() + "/das_generate --dir " + spool.str() +
                " --channels 12 --rate 20 --files 5 --seconds-per-file 2 "
                "--start 170728224510"),
            0);
  // Outputs go to a separate directory so the offline catalog scan
  // sees only the original acquisition files.
  TmpDir outdir("tools_ingest_out");
  const std::string streamed = outdir.file("streamed.dh5");
  const std::string offline = outdir.file("offline.dh5");
  ASSERT_EQ(run(tools_dir() + "/das_ingest --spool " + spool.str() +
                " --out " + streamed +
                " --once --window 3 --overlap 1 --window-half 4 "
                "--lag-half 2 --nodes 2 --cores 2"),
            0);
  ASSERT_EQ(run(tools_dir() + "/das_analyze --dir " + spool.str() +
                " --pipeline similarity --window-half 4 --lag-half 2 "
                "--nodes 2 --cores 2 --out " + offline),
            0);
  std::ifstream a(streamed, std::ios::binary);
  std::ifstream b(offline, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  std::ostringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());
  EXPECT_GT(abuf.str().size(), 0u);
}

TEST_F(ToolsSmokeTest, IngestRequiresSpoolAndOut) {
  EXPECT_EQ(run(tools_dir() + "/das_ingest --out x.dh5 --once"), 2);
  EXPECT_EQ(run(tools_dir() + "/das_ingest --spool /tmp --once"), 2);
}

TEST(ServeDaemonSmoke, RepeatedPollsUnderALowFdLimitAllSucceed) {
  // das_top --once polls each open a connection and hang up. A daemon
  // that kept every finished connection would run out of its 32 fds
  // after a few dozen polls and leave the next one waiting unanswered
  // in the accept backlog (hence the timeout).
  TmpDir dir("tools_serve_fds");
  const std::string archive = generate_archive(dir);
  const std::string sock = dir.file("s.sock");
  const pid_t pid = spawn_shell("ulimit -n 32; exec " + tools_dir() +
                                "/das_serve --socket " + sock +
                                " --archive " + archive +
                                " > /dev/null 2>&1");
  ASSERT_GT(pid, 0);
  for (int i = 0; i < 200 && !std::filesystem::exists(sock); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const bool listening = std::filesystem::exists(sock);
  int first_failure = -1;
  for (int i = 0; listening && i < 100 && first_failure < 0; ++i) {
    if (run("timeout 10 " + tools_dir() + "/das_top --socket " + sock +
            " --once") != 0) {
      first_failure = i;
    }
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_exit(pid), 0);
  EXPECT_TRUE(listening);
  EXPECT_EQ(first_failure, -1);
}

TEST(ServeDaemonSmoke, UnbindableSocketExitsOne) {
  TmpDir dir("tools_serve_bind");
  const std::string archive = generate_archive(dir);
  EXPECT_EQ(run(tools_dir() +
                "/das_serve --socket /nonexistent-dassa-dir/s.sock "
                "--archive " + archive),
            1);
}

TEST(ServeDaemonSmoke, SocketPathOnARegularFileExitsOneAndKeepsIt) {
  TmpDir dir("tools_serve_notsock");
  const std::string archive = generate_archive(dir);
  const std::string notes = dir.file("notes.txt");
  {
    std::ofstream f(notes);
    f << "not a socket\n";
  }
  // The timeout turns a daemon that replaced the file and started
  // serving into a failure (124) instead of a hang.
  EXPECT_EQ(run("timeout 30 " + tools_dir() + "/das_serve --socket " +
                notes + " --archive " + archive),
            1);
  std::ifstream f(notes);
  std::stringstream kept;
  kept << f.rdbuf();
  EXPECT_EQ(kept.str(), "not a socket\n");
}

TEST(ServeDaemonSmoke, TopGivesUpOnADaemonThatNeverAnswers) {
  // A bound, listening socket whose accept is never called: the
  // connect succeeds into the backlog, the kStats request is buffered,
  // and no reply ever comes. das_top must give up on its own (exit 1)
  // well before the outer timeout (exit 124).
  TmpDir dir("tools_top_timeout");
  const serve::Listener silent(dir.file("silent.sock"));
  const auto t0 = std::chrono::steady_clock::now();
  const int code = run("timeout 20 " + tools_dir() + "/das_top --socket " +
                       silent.path() + " --once");
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(code, 1);
  EXPECT_LT(waited, std::chrono::seconds(15));
}

}  // namespace
}  // namespace dassa
