// Reproduces Figure 9: OVS running time as a function of the number of
// intersections (10, 50, 100, 500, 1000 as in the paper). The reproduction
// target is the approximately linear growth of training time with network
// size. A reduced, size-independent epoch budget is used so the measured
// scaling reflects per-iteration cost growth (the paper's y-axis scale
// depends on its 10000-epoch budget).

#include <tuple>
#include <cstdio>

#include "core/trainer.h"
#include "data/cities.h"
#include "obs/session.h"
#include "util/bench_config.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ovs;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  obs::Session session(obs::MakeBenchSessionOptions(args, argv[0]));
  const bool full = GetBenchScale() == BenchScale::kFull;
  const int train_samples = full ? 8 : 4;
  const int epochs = full ? 30 : 10;
  std::printf("[fig9] thread pool: %d threads (set OVS_NUM_THREADS)\n",
              GlobalThreadCount());

  Table table("Figure 9 (analogue) — OVS running time vs intersections");
  table.SetHeader({"Intersections", "links", "ODs", "datagen(s)", "train(s)",
                   "recover(s)", "total(s)"});

  double prev_total = 0.0;
  int prev_size = 0;
  for (int size : {10, 50, 100, 500, 1000}) {
    Timer total;
    data::Dataset dataset = data::BuildDataset(data::ScalingConfig(size));

    Timer datagen;
    core::TrainingData train =
        core::GenerateTrainingData(dataset, train_samples, 2002);
    const double datagen_s = datagen.ElapsedSeconds();

    Rng rng(11);
    core::OvsConfig config;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    core::OvsModel model(dataset.num_od(), dataset.num_links(),
                         dataset.num_intervals(), dataset.incidence, config,
                         &rng);
    core::TrainerConfig trainer_config;
    trainer_config.stage1_epochs = epochs;
    trainer_config.stage2_epochs = epochs;
    trainer_config.recovery_epochs = epochs * 2;
    core::OvsTrainer trainer(&model, trainer_config);

    Timer train_timer;
    std::ignore = trainer.TrainVolumeSpeed(train);
    std::ignore = trainer.TrainTodVolume(train);
    const double train_s = train_timer.ElapsedSeconds();

    core::TrainingSample ground_truth = core::SimulateGroundTruth(dataset, 4242);
    Timer recover_timer;
    std::ignore = trainer.RecoverTod(ground_truth.speed, nullptr, &rng);
    const double recover_s = recover_timer.ElapsedSeconds();

    const double total_s = total.ElapsedSeconds();
    table.AddRow({std::to_string(dataset.net.num_intersections()),
                  std::to_string(dataset.net.num_links()),
                  std::to_string(dataset.num_od()), Table::Cell(datagen_s, 2),
                  Table::Cell(train_s, 2), Table::Cell(recover_s, 2),
                  Table::Cell(total_s, 2)});
    std::printf("[fig9] %d intersections: %.2f s total", size, total_s);
    if (prev_size > 0) {
      std::printf("  (x%.2f time for x%.2f size)", total_s / prev_total,
                  static_cast<double>(size) / prev_size);
    }
    std::printf("\n");
    prev_total = total_s;
    prev_size = size;
  }
  table.Print();
  std::printf(
      "Expected shape: total time grows ~linearly with the intersection "
      "count (paper Fig. 9).\n");

  // Companion series: the simulator-bound data-generation stage at explicit
  // pool sizes. Outputs are bitwise-identical on every row; only wall time
  // changes. Each simulation is serial, and GenerateTrainingData runs one
  // sample per pool thread at a time, so the rows speed up with the pool
  // size until it reaches the sample count.
  Table threads_table("Fig. 9 companion — datagen wall time vs thread count");
  threads_table.SetHeader({"threads", "datagen(s)"});
  const int pool_before = GlobalThreadCount();
  for (const int threads : {1, 2, 4}) {
    SetGlobalThreads(threads);
    const data::Dataset dataset = data::BuildDataset(data::ScalingConfig(100));
    Timer datagen;
    core::TrainingData train =
        core::GenerateTrainingData(dataset, train_samples, 2002);
    const double datagen_s = datagen.ElapsedSeconds();
    std::ignore = train;
    threads_table.AddRow({std::to_string(threads), Table::Cell(datagen_s, 2)});
    std::printf("[fig9] datagen @%d thread(s): %.2f s\n", threads, datagen_s);
  }
  SetGlobalThreads(pool_before);
  threads_table.Print();
  return session.Close() ? 0 : 1;
}
