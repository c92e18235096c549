// das_query: client CLI for a running das_serve daemon. Issues one
// read over the local socket and prints a summary (or dumps the
// payload); perfbench's serve_mixed workload (BENCHMARK.json) is the
// load-driving multi-client counterpart.
//
// Usage:
//   das_query --socket <path> [read selection] [--dump] [--repeat N]
//
// read selection (pick one addressing):
//   --row-off N --row-cnt N --col-off N --col-cnt N   column addressing
//       (counts of 0 = "to the end"; all default to 0, so a bare
//        das_query reads the whole archive)
//   --from yymmddhhmmss --to yymmddhhmmss             time addressing
//       (resolved server-side through the time-interval index;
//        --row-off/--row-cnt still select channels)
//
//   --dump      print every sample, "row col value" per line
//   --repeat N  issue the request N times on one connection (a quick
//               cache-warmth probe; the summary prints per-call stats)
#include <cstdio>
#include <iostream>

#include "arg_parse.hpp"
#include "dassa/common/error.hpp"
#include "dassa/das/time.hpp"
#include "dassa/serve/client.hpp"

namespace {

using namespace dassa;

void summarize(const Slab2D& slab, const std::vector<double>& data) {
  double sum = 0.0;
  double lo = data.empty() ? 0.0 : data.front();
  double hi = lo;
  for (const double v : data) {
    sum += v;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  const double mean = data.empty() ? 0.0 : sum / static_cast<double>(
                                               data.size());
  std::printf("slab %s  elems %zu  mean %.6g  min %.6g  max %.6g\n",
              slab.str().c_str(), data.size(), mean, lo, hi);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--socket")) {
    std::cerr << "usage: das_query --socket <path> "
                 "[--row-off N --row-cnt N --col-off N --col-cnt N |\n"
                 "       --from yymmddhhmmss --to yymmddhhmmss "
                 "[--row-off N --row-cnt N]]\n"
                 "[--dump] [--repeat N]\n"
                 "see the header comment of tools/das_query.cpp for "
                 "semantics\n";
    return 2;
  }
  try {
    serve::Client client(args.get("--socket"));
    const std::size_t row_off =
        static_cast<std::size_t>(args.get_long("--row-off", 0));
    const std::size_t row_cnt =
        static_cast<std::size_t>(args.get_long("--row-cnt", 0));
    const long repeat = args.get_long("--repeat", 1);
    DASSA_CHECK(repeat >= 1, "--repeat must be at least 1");

    Slab2D slab;
    std::vector<double> data;
    for (long i = 0; i < repeat; ++i) {
      if (args.has("--from") || args.has("--to")) {
        DASSA_CHECK(args.has("--from") && args.has("--to"),
                    "--from and --to go together");
        const std::int64_t begin_s =
            das::Timestamp::parse(args.get("--from")).epoch_seconds();
        const std::int64_t end_s =
            das::Timestamp::parse(args.get("--to")).epoch_seconds();
        data = client.read_window(begin_s, end_s, row_off, row_cnt, &slab);
      } else {
        slab.row_off = row_off;
        slab.row_cnt = row_cnt;
        slab.col_off =
            static_cast<std::size_t>(args.get_long("--col-off", 0));
        slab.col_cnt =
            static_cast<std::size_t>(args.get_long("--col-cnt", 0));
        serve::ReadRequest req;
        req.addressing = serve::Addressing::kColumns;
        req.row_off = slab.row_off;
        req.row_cnt = slab.row_cnt;
        req.col_off = slab.col_off;
        req.col_cnt = slab.col_cnt;
        serve::ReadResponse resp = client.call(req);
        if (!resp.ok) throw StateError("serve request refused: " + resp.error);
        slab = Slab2D{resp.row_off, resp.col_off, resp.shape.rows,
                      resp.shape.cols};
        data = std::move(resp.data);
      }
      summarize(slab, data);
    }
    if (args.has("--dump")) {
      for (std::size_t r = 0; r < slab.row_cnt; ++r) {
        for (std::size_t c = 0; c < slab.col_cnt; ++c) {
          std::printf("%zu %zu %.17g\n", slab.row_off + r, slab.col_off + c,
                      data[r * slab.col_cnt + c]);
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "das_query: " << e.what() << "\n";
    return 1;
  }
}
