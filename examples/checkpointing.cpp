// Operating the framework across restarts: Q-network checkpointing.
//
// A production arrangement service must survive process restarts without
// forgetting months of online learning. The Q-networks serialize to a
// compact binary format; this example trains briefly, saves, reloads into
// a fresh network, and verifies bit-identical value predictions.
//
//   $ ./build/examples/checkpointing
#include <cstdio>

#include "nn/optimizer.h"
#include "nn/set_qnetwork.h"

using namespace crowdrl;

int main() {
  // A worker-side Q-network with the paper's architecture, small width.
  SetQNetworkConfig cfg;
  cfg.input_dim = 48;  // |f_w| + |f_t| for 10 categories, 8 domains, 6 awards
  cfg.hidden_dim = 64;
  cfg.num_heads = 4;
  Rng rng(2024);
  SetQNetwork net(cfg, &rng);
  std::printf("Q-network: input=%zu hidden=%zu heads=%zu (%zu parameters)\n",
              cfg.input_dim, cfg.hidden_dim, cfg.num_heads,
              net.NumParameters());

  // Simulate a bit of training: regress random states toward fake targets.
  OptimizerConfig opt;
  Adam adam(net.Params(), opt);
  auto grads = net.MakeGradients();
  Matrix state = Matrix::Uniform(20, cfg.input_dim, &rng);
  for (int step = 0; step < 50; ++step) {
    SetQNetwork::Cache cache;
    const Matrix& q = net.ForwardInto(state, 20, &cache);
    Matrix dq(20, 1);
    for (size_t r = 0; r < 20; ++r) {
      dq(r, 0) = 2.0f * (q(r, 0) - 0.5f);
    }
    grads.SetZero();
    net.Backward(state, dq, cache, &grads);
    adam.Step(grads.g, 1.0 / 20);
  }

  // Checkpoint to disk.
  const std::string path = "/tmp/crowdrl_qnet.ckpt";
  Status st = net.SaveToFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path.c_str());

  // Restore into a fresh object and compare predictions.
  SetQNetwork restored;
  st = restored.LoadFromFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto q_before = net.QValues(state, 20);
  auto q_after = restored.QValues(state, 20);
  double max_diff = 0;
  for (size_t i = 0; i < q_before.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(q_before[i] - q_after[i]));
  }
  std::printf("max |Q_before - Q_after| across 20 tasks: %g %s\n", max_diff,
              max_diff == 0 ? "(bit-identical)" : "");
  return max_diff == 0 ? 0 : 1;
}
