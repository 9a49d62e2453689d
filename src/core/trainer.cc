#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>

#include "nn/convert.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "sim/sensor_faults.h"
#include "util/thread_pool.h"

namespace ovs::core {

namespace {

/// Normalized float target from a DMat measurement.
nn::Tensor NormalizedTarget(const DMat& m, double scale) {
  CHECK_GT(scale, 0.0);
  nn::Tensor t = nn::FromDMat(m);
  t.ScaleInPlace(static_cast<float>(1.0 / scale));
  return t;
}

/// The final epoch is always checkpointed so a finished stage can be resumed
/// as a no-op; in between, every `every` epochs (values < 1: final only).
bool ShouldCheckpoint(int epoch, int total_epochs, int every) {
  if (epoch + 1 == total_epochs) return true;
  return every >= 1 && (epoch + 1) % every == 0;
}

/// Snapshot of a training stage: module parameters, Adam moments/step, the
/// completed-epoch count, the running loss, and the stage's RNG stream.
TrainerCheckpoint MakeStageCheckpoint(const std::string& stage, int epoch,
                                      double loss, const nn::Module& module,
                                      const nn::Adam& opt,
                                      std::string rng_state) {
  TrainerCheckpoint ckpt;
  ckpt.stage = stage;
  ckpt.epoch = epoch;
  ckpt.loss = loss;
  ckpt.rng_state = std::move(rng_state);
  for (const auto& [name, v] : module.NamedParameters()) {
    ckpt.tensors.emplace_back(name, v.value());
  }
  AppendAdamState(opt, &ckpt);
  return ckpt;
}

/// Tries to resume `stage` from `<dir>/<stage>.ckpt`. On success restores
/// module parameters, optimizer state, and (when `rng` is non-null and the
/// checkpoint carries a stream) the RNG, sets `*loss_out` to the
/// checkpointed loss, and returns the epoch to continue from. Any unusable
/// checkpoint — missing, corrupt, or from a different stage/architecture —
/// is reported and the stage trains from scratch (returns 0).
int TryResumeStage(const CheckpointOptions& ck, const std::string& stage,
                   nn::Module* module, nn::Adam* opt, Rng* rng,
                   double* loss_out) {
  const std::string path = ck.dir + "/" + stage + ".ckpt";
  StatusOr<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      LOG(ERROR) << "ignoring unusable checkpoint " << path << ": "
                 << loaded.status().ToString();
    }
    return 0;
  }
  if (loaded->stage != stage) {
    LOG(ERROR) << "checkpoint " << path << " is for stage '" << loaded->stage
               << "', expected '" << stage << "'; training from scratch";
    return 0;
  }
  Status status = RestoreModuleParameters(*loaded, module);
  if (status.ok()) {
    status = RestoreAdamState(*loaded, opt->moments_m().size(), opt);
  }
  if (status.ok() && rng != nullptr && !loaded->rng_state.empty()) {
    status = rng->LoadState(loaded->rng_state);
  }
  if (!status.ok()) {
    LOG(ERROR) << "cannot resume from " << path << ": " << status.ToString();
    return 0;
  }
  *loss_out = loaded->loss;
  LOG(INFO) << "resuming " << stage << " from epoch " << loaded->epoch;
  return loaded->epoch;
}

}  // namespace

OvsTrainer::OvsTrainer(OvsModel* model, TrainerConfig config)
    : model_(model), config_(config), dropout_rng_(987654321) {
  CHECK(model != nullptr);
}

StatusOr<std::vector<double>> OvsTrainer::TrainVolumeSpeed(
    const TrainingData& data) {
  CHECK(!data.samples.empty());
  const double speed_scale = model_->config().speed_scale;

  std::vector<nn::Tensor> volume_inputs;
  std::vector<nn::Tensor> speed_targets;
  for (const TrainingSample& s : data.samples) {
    volume_inputs.push_back(nn::FromDMat(s.volume));
    speed_targets.push_back(NormalizedTarget(s.speed, speed_scale));
  }

  OVS_TRACE_SCOPE("trainer.stage1");
  nn::Adam opt(model_->volume_speed().Parameters(), config_.lr);
  std::vector<double> curve;
  curve.reserve(config_.stage1_epochs);

  const CheckpointOptions& ck = config_.checkpoint;
  const std::string ckpt_path = ck.dir + "/stage1.ckpt";
  int start_epoch = 0;
  double resumed_loss = 0.0;
  if (ck.enabled() && ck.resume) {
    start_epoch = TryResumeStage(ck, "stage1", &model_->volume_speed(), &opt,
                                 /*rng=*/nullptr, &resumed_loss);
    if (start_epoch > config_.stage1_epochs) start_epoch = config_.stage1_epochs;
    // A finished stage resumes as a no-op; keep curve.back() meaningful.
    if (start_epoch > 0 && start_epoch >= config_.stage1_epochs) {
      curve.push_back(resumed_loss);
    }
  }
  // Divergence guard: snapshot before the loop (so even an epoch-0 blowup
  // has a rollback target), then after every healthy epoch.
  TrainGuard guard("stage1", config_.guard, config_.lr);
  guard.Snapshot(start_epoch, resumed_loss, model_->volume_speed(), opt,
                 /*rng_state=*/"");
  for (int epoch = start_epoch; epoch < config_.stage1_epochs;) {
    OVS_TRACE_SCOPE("trainer.stage1.epoch");
    double epoch_loss = 0.0;
    for (size_t i = 0; i < volume_inputs.size(); ++i) {
      opt.ZeroGrad();
      nn::Variable q(volume_inputs[i], /*requires_grad=*/false);
      nn::Variable v = model_->SpeedFromVolume(q);
      nn::Variable v_norm = nn::ScalarMul(v, 1.0f / static_cast<float>(speed_scale));
      nn::Variable loss = nn::MseLoss(v_norm, speed_targets[i]);
      loss.Backward();
      opt.ClipGrad(config_.grad_clip);
      opt.Step();
      epoch_loss += loss.value()[0];
    }
    const double mean_loss = epoch_loss / volume_inputs.size();
    if (!guard.EpochHealthy(mean_loss, model_->volume_speed())) {
      ASSIGN_OR_RETURN(
          const TrainGuard::Rollback rb,
          guard.TryRollback(&model_->volume_speed(), &opt, /*rng=*/nullptr));
      curve.resize(static_cast<size_t>(rb.epoch - start_epoch));
      epoch = rb.epoch;
      continue;
    }
    curve.push_back(mean_loss);
    guard.Snapshot(epoch + 1, mean_loss, model_->volume_speed(), opt,
                   /*rng_state=*/"");
    OVS_COUNTER_INC("trainer.stage1.epochs");
    OVS_GAUGE_SET("trainer.stage1.loss", curve.back());
    OVS_HISTOGRAM_OBSERVE("trainer.stage1.epoch_loss", curve.back(), 1e-4,
                          1e-3, 1e-2, 0.1, 1.0, 10.0);
    OVS_TRACE_COUNTER("trainer.stage1.loss", curve.back());
    if (config_.verbose && epoch % 20 == 0) {
      LOG(INFO) << "stage1 epoch " << epoch << " loss " << curve.back();
    }
    if (ck.enabled() && ShouldCheckpoint(epoch, config_.stage1_epochs, ck.every)) {
      const Status saved = SaveTrainerCheckpoint(
          MakeStageCheckpoint("stage1", epoch + 1, curve.back(),
                              model_->volume_speed(), opt, /*rng_state=*/""),
          ckpt_path);
      if (!saved.ok()) {
        LOG(ERROR) << "stage1 checkpoint failed: " << saved.ToString();
      }
    }
    ++epoch;
  }
  return curve;
}

void OvsTrainer::PrimeRecoveryPrior(const TrainingData& data) {
  CHECK(!data.samples.empty());
  // The Gaussian prior for recovery is the training TOD cell mean.
  double cell_sum = 0.0;
  long cell_count = 0;
  for (const TrainingSample& s : data.samples) {
    cell_sum += s.tod.mat().Sum();
    cell_count += s.tod.mat().numel();
  }
  prior_cell_mean_ = cell_count > 0 ? cell_sum / cell_count : 0.0;
  sample_speed_levels_.clear();
  for (const TrainingSample& s : data.samples) {
    sample_speed_levels_.emplace_back(s.speed, s.tod.mat().Mean());
  }
}

StatusOr<std::vector<double>> OvsTrainer::TrainTodVolume(
    const TrainingData& data) {
  CHECK(!data.samples.empty());
  const double speed_scale = model_->config().speed_scale;
  const double volume_norm = model_->config().volume_norm;

  PrimeRecoveryPrior(data);

  std::vector<nn::Tensor> tod_inputs;
  std::vector<nn::Tensor> speed_targets;
  std::vector<nn::Tensor> volume_targets;
  for (const TrainingSample& s : data.samples) {
    tod_inputs.push_back(nn::FromDMat(s.tod.mat()));
    speed_targets.push_back(NormalizedTarget(s.speed, speed_scale));
    volume_targets.push_back(NormalizedTarget(s.volume, volume_norm));
  }

  // Paper §V-E step 2: V2S is frozen; gradients flow through it into TOD2V.
  model_->volume_speed().SetTrainable(false);
  OVS_TRACE_SCOPE("trainer.stage2");
  nn::Adam opt(model_->tod_volume().Parameters(), config_.lr);
  std::vector<double> curve;
  curve.reserve(config_.stage2_epochs);

  const CheckpointOptions& ck = config_.checkpoint;
  const std::string ckpt_path = ck.dir + "/stage2.ckpt";
  int start_epoch = 0;
  double resumed_loss = 0.0;
  if (ck.enabled() && ck.resume) {
    // Stage 2 consumes dropout_rng_; the checkpoint carries its stream so a
    // resumed run draws the same dropout masks as an uninterrupted one.
    start_epoch = TryResumeStage(ck, "stage2", &model_->tod_volume(), &opt,
                                 &dropout_rng_, &resumed_loss);
    if (start_epoch > config_.stage2_epochs) start_epoch = config_.stage2_epochs;
    if (start_epoch > 0 && start_epoch >= config_.stage2_epochs) {
      curve.push_back(resumed_loss);
    }
  }
  // The stage-2 guard also snapshots/restores the dropout RNG stream, so a
  // rolled-back epoch redraws exactly the masks it saw the first time.
  TrainGuard guard("stage2", config_.guard, config_.lr);
  guard.Snapshot(start_epoch, resumed_loss, model_->tod_volume(), opt,
                 dropout_rng_.SaveState());
  for (int epoch = start_epoch; epoch < config_.stage2_epochs;) {
    OVS_TRACE_SCOPE("trainer.stage2.epoch");
    double epoch_loss = 0.0;
    for (size_t i = 0; i < tod_inputs.size(); ++i) {
      opt.ZeroGrad();
      nn::Variable g(tod_inputs[i], /*requires_grad=*/false);
      nn::Variable q = model_->VolumeFromTod(g, /*train=*/true, &dropout_rng_);
      nn::Variable v = model_->SpeedFromVolume(q);
      nn::Variable v_norm = nn::ScalarMul(v, 1.0f / static_cast<float>(speed_scale));
      nn::Variable loss = nn::MseLoss(v_norm, speed_targets[i]);
      if (config_.stage2_volume_weight > 0.0f) {
        nn::Variable q_norm =
            nn::ScalarMul(q, 1.0f / static_cast<float>(volume_norm));
        loss = nn::Add(loss, nn::ScalarMul(nn::MseLoss(q_norm, volume_targets[i]),
                                           config_.stage2_volume_weight));
      }
      loss.Backward();
      opt.ClipGrad(config_.grad_clip);
      opt.Step();
      epoch_loss += loss.value()[0];
    }
    const double mean_loss = epoch_loss / tod_inputs.size();
    if (!guard.EpochHealthy(mean_loss, model_->tod_volume())) {
      StatusOr<TrainGuard::Rollback> rb =
          guard.TryRollback(&model_->tod_volume(), &opt, &dropout_rng_);
      if (!rb.ok()) {
        model_->volume_speed().SetTrainable(true);
        return rb.status();
      }
      curve.resize(static_cast<size_t>(rb->epoch - start_epoch));
      epoch = rb->epoch;
      continue;
    }
    curve.push_back(mean_loss);
    guard.Snapshot(epoch + 1, mean_loss, model_->tod_volume(), opt,
                   dropout_rng_.SaveState());
    OVS_COUNTER_INC("trainer.stage2.epochs");
    OVS_GAUGE_SET("trainer.stage2.loss", curve.back());
    OVS_HISTOGRAM_OBSERVE("trainer.stage2.epoch_loss", curve.back(), 1e-4,
                          1e-3, 1e-2, 0.1, 1.0, 10.0);
    OVS_TRACE_COUNTER("trainer.stage2.loss", curve.back());
    if (config_.verbose && epoch % 20 == 0) {
      LOG(INFO) << "stage2 epoch " << epoch << " loss " << curve.back();
    }
    if (ck.enabled() && ShouldCheckpoint(epoch, config_.stage2_epochs, ck.every)) {
      const Status saved = SaveTrainerCheckpoint(
          MakeStageCheckpoint("stage2", epoch + 1, curve.back(),
                              model_->tod_volume(), opt,
                              dropout_rng_.SaveState()),
          ckpt_path);
      if (!saved.ok()) {
        LOG(ERROR) << "stage2 checkpoint failed: " << saved.ToString();
      }
    }
    ++epoch;
  }
  model_->volume_speed().SetTrainable(true);
  return curve;
}

StatusOr<od::TodTensor> OvsTrainer::RecoverTod(const DMat& observed_speed,
                                               const AuxLossSet* aux,
                                               Rng* rng) {
  OVS_TRACE_SCOPE("trainer.recover");
  OVS_SCOPED_DURATION_GAUGE("trainer.recover.seconds");
  OVS_COUNTER_INC("trainer.recoveries");
  const double speed_scale = model_->config().speed_scale;

  // Validate up front, before any state is touched: restarts beyond the
  // first re-draw their seeds, which is impossible without an RNG. This
  // used to be a CHECK deep inside restart setup — a crash on a plain
  // configuration mistake.
  const int restarts = std::max(1, config_.recovery_restarts);
  if (restarts > 1 && rng == nullptr) {
    return Status::InvalidArgument(
        std::to_string(restarts) +
        " recovery restarts require an RNG to resample seeds; pass one or "
        "set recovery_restarts <= 1");
  }

  // Observation-validity mask: real feeds have dark links and dead cells
  // (NaN). With mask_observations those cells are excluded from the loss
  // and the prior's kernel regression; without it they are read literally
  // as 0 m/s — the garbage-in reference the masked path is tested against.
  const int invalid_cells = sim::CountInvalidCells(observed_speed);
  const int total_cells = observed_speed.rows() * observed_speed.cols();
  if (invalid_cells >= total_cells) {
    return Status::InvalidArgument(
        "observed speed has no finite cells (" +
        std::to_string(total_cells) + " invalid)");
  }
  const bool masked = config_.mask_observations && invalid_cells > 0;
  const DMat obs_mask = sim::ObservationMask(observed_speed);
  const DMat observed_filled =
      invalid_cells > 0 ? sim::FillInvalidCells(observed_speed, 0.0)
                        : observed_speed;
  OVS_GAUGE_SET("trainer.recover.invalid_cells",
                static_cast<double>(invalid_cells));
  nn::Tensor target = NormalizedTarget(observed_filled, speed_scale);
  nn::Tensor obs_mask_t;
  if (masked) obs_mask_t = nn::FromDMat(obs_mask);

  // Adapt the Gaussian-prior level to the observed speed: kernel-weighted
  // average of the generated samples' demand levels, weighted by how close
  // their simulated speed profile is to the observation. Uses only the
  // generated training data — the ground truth TOD is never touched.
  double adapted_prior = prior_cell_mean_;
  if (!sample_speed_levels_.empty()) {
    // Distance = median over links of per-link speed RMSE. The median makes
    // the level estimate robust to a few exogenously slowed links (road
    // work, accidents — paper RQ3), which a full-tensor RMSE would read as
    // globally heavier demand. Under masking, invalid observation cells are
    // skipped and fully dark links drop out of the median entirely.
    auto robust_distance = [&](const DMat& speed) {
      std::vector<double> per_link;
      per_link.reserve(speed.rows());
      for (int l = 0; l < speed.rows(); ++l) {
        double acc = 0.0;
        int valid = 0;
        for (int t = 0; t < speed.cols(); ++t) {
          if (masked && obs_mask.at(l, t) == 0.0) continue;
          const double d = speed.at(l, t) - observed_filled.at(l, t);
          acc += d * d;
          ++valid;
        }
        if (valid == 0) continue;
        per_link.push_back(std::sqrt(acc / valid));
      }
      std::nth_element(per_link.begin(), per_link.begin() + per_link.size() / 2,
                       per_link.end());
      return per_link[per_link.size() / 2];
    };
    std::vector<double> dists;
    dists.reserve(sample_speed_levels_.size());
    double min_d = 1e30;
    for (const auto& [speed, level] : sample_speed_levels_) {
      const double d = robust_distance(speed);
      dists.push_back(d);
      min_d = std::min(min_d, d);
    }
    std::vector<double> sorted = dists;
    // Sorting raw doubles: equal keys are indistinguishable values, so the
    // unstable tie order cannot change the selected median.
    std::sort(sorted.begin(), sorted.end());  // ovs-lint: allow(nonstable-sort)
    const double median_d = sorted[sorted.size() / 2];
    const double bandwidth = std::max({0.1, min_d, 0.5 * median_d});
    double w_sum = 0.0, level_sum = 0.0;
    for (size_t i = 0; i < dists.size(); ++i) {
      const double w =
          std::exp(-0.5 * (dists[i] / bandwidth) * (dists[i] / bandwidth));
      w_sum += w;
      level_sum += w * sample_speed_levels_[i].second;
    }
    if (w_sum > 1e-12) adapted_prior = level_sum / w_sum;
  }

  // Gaussian-prior anchor in normalized TOD units (see TrainerConfig).
  nn::Tensor prior_mean({model_->num_od(), model_->num_intervals()});
  prior_mean.Fill(
      static_cast<float>(adapted_prior / model_->config().tod_scale));

  // Freeze the learned mappings; only TOD Generation moves.
  model_->tod_volume().SetTrainable(false);
  model_->volume_speed().SetTrainable(false);

  // Start the decoder at the Gaussian prior mean so directions the speed
  // loss cannot see stay at the prior instead of the sigmoid midpoint.
  const float prior_fraction =
      adapted_prior > 0.0
          ? std::clamp(static_cast<float>(adapted_prior /
                                          model_->config().tod_scale),
                       0.05f, 0.9f)
          : 0.3f;

  // Restarts are fitted concurrently, each on its own generator instance
  // starting from the pre-recovery decoder weights. Determinism across
  // thread counts: the per-restart seed tensors are drawn serially here (so
  // RNG consumption never depends on scheduling), every restart's fit is a
  // self-contained serial computation, and the winner is picked by loss
  // with the lowest restart index breaking ties. Restart 0 keeps the
  // generator's current seeds, so a 1-restart recovery reproduces the
  // original serial path exactly.
  std::vector<std::unique_ptr<TodGeneratorIface>> generators(restarts);
  for (int restart = 0; restart < restarts; ++restart) {
    Rng scratch_init(1);  // weights and seeds are overwritten below
    generators[restart] = model_->MakeTodGenerator(&scratch_init);
    generators[restart]->CopyParametersFrom(model_->tod_generation());
    if (restart == 0) {
      generators[restart]->set_seeds(model_->tod_generation().seeds());
    } else {
      nn::Tensor seeds = model_->tod_generation().seeds();
      generators[restart]->set_seeds(
          nn::Tensor::RandomGaussian(seeds.shape(), 0.0f, 1.0f, rng));
    }
  }

  std::vector<double> losses(restarts,
                             std::numeric_limits<double>::infinity());

  // Checkpoint/resume at restart granularity: each finished restart persists
  // its generator state, seeds, and loss; a resumed recovery skips those
  // fits entirely. The per-restart seeds above are still drawn serially for
  // every restart regardless, so RNG consumption — and any later draw from
  // `rng` — is identical with and without a resume.
  const CheckpointOptions& ck = config_.checkpoint;
  auto restart_stage = [](int64_t restart) {
    return "recovery.restart" + std::to_string(restart);
  };
  auto restart_path = [&](int64_t restart) {
    return ck.dir + "/" + restart_stage(restart) + ".ckpt";
  };
  std::vector<char> restored(restarts, 0);
  if (ck.enabled() && ck.resume) {
    for (int restart = 0; restart < restarts; ++restart) {
      StatusOr<TrainerCheckpoint> loaded =
          LoadTrainerCheckpoint(restart_path(restart));
      if (!loaded.ok()) {
        if (loaded.status().code() != StatusCode::kNotFound) {
          LOG(ERROR) << "ignoring unusable checkpoint "
                     << restart_path(restart) << ": "
                     << loaded.status().ToString();
        }
        continue;
      }
      if (loaded->stage != restart_stage(restart)) {
        LOG(ERROR) << "checkpoint " << restart_path(restart)
                   << " is for stage '" << loaded->stage << "'; refitting";
        continue;
      }
      const nn::Tensor* seeds = nullptr;
      for (const auto& [name, t] : loaded->tensors) {
        if (name == "seeds") seeds = &t;
      }
      if (seeds == nullptr ||
          !seeds->SameShape(model_->tod_generation().seeds())) {
        LOG(ERROR) << "checkpoint " << restart_path(restart)
                   << " has missing or mismatched seeds; refitting";
        continue;
      }
      const Status status =
          RestoreModuleParameters(*loaded, generators[restart].get());
      if (!status.ok()) {
        LOG(ERROR) << "cannot resume restart " << restart << ": "
                   << status.ToString();
        // Reset to the pre-recovery decoder weights so the refit below is
        // indistinguishable from a never-checkpointed run.
        generators[restart]->CopyParametersFrom(model_->tod_generation());
        continue;
      }
      generators[restart]->set_seeds(*seeds);
      losses[restart] = loaded->loss;
      restored[restart] = 1;
      LOG(INFO) << "resumed recovery restart " << restart << " (loss "
                << loaded->loss << ")";
    }
  }

  std::vector<Status> save_statuses(restarts);
  std::vector<Status> fit_statuses(restarts);

  // External deadline/cancel control, polled once per epoch next to the
  // guard. The first non-OK poll stops every restart; partially fitted
  // state is discarded and the control's status propagates to the caller.
  std::atomic<bool> ctl_stop{false};
  std::mutex ctl_mutex;
  Status ctl_status;  // first non-OK poll; guarded by ctl_mutex
  auto poll_control = [&]() {
    if (config_.run_control == nullptr) return true;
    if (ctl_stop.load(std::memory_order_relaxed)) return false;
    Status ctl = config_.run_control->Poll();
    if (ctl.ok()) return true;
    {
      std::lock_guard<std::mutex> lock(ctl_mutex);
      if (ctl_status.ok()) ctl_status = std::move(ctl);
    }
    ctl_stop.store(true, std::memory_order_relaxed);
    return false;
  };

  // Recovery loss for one restart's (g, q, v) triple. Shared by the batched
  // and legacy fit paths below so both build the exact same graph per
  // restart — the foundation of their bitwise equivalence.
  auto build_loss = [&](const nn::Variable& g, const nn::Variable& q,
                        const nn::Variable& v) {
    nn::Variable v_norm =
        nn::ScalarMul(v, 1.0f / static_cast<float>(speed_scale));
    // Main loss, Eq. 12 (robustified; see TrainerConfig). Masked
    // variants exclude invalid observation cells from value and grad.
    nn::Variable loss =
        config_.recovery_huber_delta > 0.0f
            ? (masked ? nn::MaskedHuberLoss(v_norm, target, obs_mask_t,
                                            config_.recovery_huber_delta)
                      : nn::HuberLoss(v_norm, target,
                                      config_.recovery_huber_delta))
            : (masked ? nn::MaskedMseLoss(v_norm, target, obs_mask_t)
                      : nn::MseLoss(v_norm, target));
    if (aux != nullptr && aux->active()) {
      loss = nn::Add(loss, aux->Compute(g, q, v));  // Eq. 13
    }
    if (config_.recovery_prior_weight > 0.0f) {
      nn::Variable g_norm =
          nn::ScalarMul(g, 1.0f / model_->config().tod_scale);
      loss = nn::Add(loss, nn::ScalarMul(nn::MseLoss(g_norm, prior_mean),
                                         config_.recovery_prior_weight));
    }
    return loss;
  };

  if (config_.batch_restarts) {
    // Batched lockstep fit: every epoch stacks the pending restarts' TOD
    // outputs row-wise and pushes ONE [A*N_od x T] graph through the frozen
    // mappings instead of A separate [N_od x T] graphs. Each restart keeps
    // its own generator, Adam state, and guard; every op in the stacked
    // chain is row-block independent and the frozen mappings receive no
    // gradients, so the numbers each restart sees are bitwise-identical to
    // the legacy restart-at-a-time path — only the kernel shapes grow.
    // Restarts that diverge (guard gives up) or finish drop out of the
    // stack; the rest keep fitting.
    struct RestartFit {
      int id = 0;
      int epoch = 0;
      double final_loss = 0.0;
      std::unique_ptr<nn::Adam> opt;
      std::unique_ptr<TrainGuard> guard;
    };
    std::vector<RestartFit> active;
    active.reserve(restarts);
    for (int restart = 0; restart < restarts; ++restart) {
      // A restored restart skips the whole fit, including the output-level
      // re-initialization — its state already is the post-fit state.
      if (restored[restart]) continue;
      TodGeneratorIface& gen = *generators[restart];
      gen.InitializeOutputLevel(prior_fraction);
      RestartFit fit;
      fit.id = restart;
      fit.opt =
          std::make_unique<nn::Adam>(gen.Parameters(), config_.recovery_lr);
      fit.guard = std::make_unique<TrainGuard>(
          restart_stage(restart), config_.guard, config_.recovery_lr);
      fit.guard->Snapshot(0, std::numeric_limits<double>::infinity(), gen,
                          *fit.opt, /*rng_state=*/"");
      active.push_back(std::move(fit));
    }
    const int num_links = model_->num_links();
    while (!active.empty()) {
      // Retire finished restarts first, so the epoch below only stacks
      // restarts still fitting (and recovery_epochs == 0 works).
      std::vector<RestartFit> pending;
      pending.reserve(active.size());
      for (RestartFit& fit : active) {
        if (fit.epoch < config_.recovery_epochs) {
          pending.push_back(std::move(fit));
          continue;
        }
        TodGeneratorIface& gen = *generators[fit.id];
        losses[fit.id] = fit.final_loss;
        obs::SetGaugeDynamic(
            "trainer.recover.restart_loss." + std::to_string(fit.id),
            fit.final_loss);
        OVS_COUNTER_INC("trainer.recover.restarts");
        if (ck.enabled()) {
          TrainerCheckpoint ckpt;
          ckpt.stage = restart_stage(fit.id);
          ckpt.epoch = config_.recovery_epochs;
          ckpt.loss = fit.final_loss;
          for (const auto& [name, v] : gen.NamedParameters()) {
            ckpt.tensors.emplace_back(name, v.value());
          }
          ckpt.tensors.emplace_back("seeds", gen.seeds());
          save_statuses[fit.id] =
              SaveTrainerCheckpoint(ckpt, restart_path(fit.id));
        }
      }
      active = std::move(pending);
      if (active.empty()) break;
      if (!poll_control()) break;

      OVS_TRACE_SCOPE("trainer.recover.batched_epoch");
      const int blocks = static_cast<int>(active.size());
      for (RestartFit& fit : active) fit.opt->ZeroGrad();
      std::vector<nn::Variable> gs;
      gs.reserve(active.size());
      for (RestartFit& fit : active) {
        gs.push_back(generators[fit.id]->Forward());
      }
      nn::Variable g_all = blocks == 1 ? gs[0] : nn::ConcatRows(gs);
      nn::Variable q_all = model_->VolumeFromTodBatched(
          g_all, blocks, /*train=*/false, nullptr);
      nn::Variable v_all = model_->SpeedFromVolumeBatched(q_all, blocks);
      std::vector<nn::Variable> block_losses;
      block_losses.reserve(active.size());
      for (int i = 0; i < blocks; ++i) {
        nn::Variable q_i = blocks == 1
                               ? q_all
                               : nn::SliceRows(q_all, i * num_links, num_links);
        nn::Variable v_i = blocks == 1
                               ? v_all
                               : nn::SliceRows(v_all, i * num_links, num_links);
        block_losses.push_back(build_loss(gs[i], q_i, v_i));
      }
      // One backward over the summed per-restart losses. Add passes the
      // seed gradient 1 through unchanged, and restart subgraphs only meet
      // at the (gradient-transparent) concat/slice pair, so each restart's
      // parameters see exactly the gradients its solo backward produces.
      nn::Variable total = block_losses[0];
      for (int i = 1; i < blocks; ++i) {
        total = nn::Add(total, block_losses[i]);
      }
      total.Backward();
      for (int i = 0; i < blocks; ++i) {
        RestartFit& fit = active[static_cast<size_t>(i)];
        fit.opt->ClipGrad(config_.grad_clip);
        fit.opt->Step();
        fit.final_loss = block_losses[i].value()[0];
      }
      // Guard verdicts in ascending restart order, exactly as the legacy
      // per-restart loop applies them.
      std::vector<RestartFit> healthy;
      healthy.reserve(active.size());
      for (RestartFit& fit : active) {
        TodGeneratorIface& gen = *generators[fit.id];
        if (!fit.guard->EpochHealthy(fit.final_loss, gen)) {
          StatusOr<TrainGuard::Rollback> rb =
              fit.guard->TryRollback(&gen, fit.opt.get(), /*rng=*/nullptr);
          if (!rb.ok()) {
            // Out of the running: losses[id] stays +inf and no checkpoint
            // of the broken state is written.
            fit_statuses[fit.id] = rb.status();
            OVS_COUNTER_INC("trainer.recover.diverged_restarts");
            continue;
          }
          fit.epoch = rb->epoch;
          healthy.push_back(std::move(fit));
          continue;
        }
        fit.guard->Snapshot(fit.epoch + 1, fit.final_loss, gen, *fit.opt,
                            /*rng_state=*/"");
        if (config_.verbose && fit.epoch % 50 == 0) {
          LOG(INFO) << "recovery restart " << fit.id << " epoch " << fit.epoch
                    << " loss " << fit.final_loss;
        }
        ++fit.epoch;
        healthy.push_back(std::move(fit));
      }
      active = std::move(healthy);
    }
  } else {
  // The frozen TOD2V/V2S mappings are shared read-only across restart
  // threads; backward never touches frozen leaves, so no synchronization is
  // needed.
  ParallelFor(0, restarts, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t restart = lo; restart < hi; ++restart) {
      // A restored restart skips the whole fit, including the output-level
      // re-initialization — its state already is the post-fit state.
      if (restored[restart]) continue;
      OVS_TRACE_SCOPE("trainer.recover.restart");
      OVS_SCOPED_DURATION_GAUGE("trainer.recover.restart_seconds." +
                                std::to_string(restart));
      TodGeneratorIface& gen = *generators[restart];
      gen.InitializeOutputLevel(prior_fraction);
      nn::Adam opt(gen.Parameters(), config_.recovery_lr);
      // Each restart owns a private guard, so fits stay self-contained
      // serial computations and the thread count cannot change behavior.
      TrainGuard guard(restart_stage(restart), config_.guard,
                       config_.recovery_lr);
      guard.Snapshot(0, std::numeric_limits<double>::infinity(), gen, opt,
                     /*rng_state=*/"");
      double final_loss = 0.0;
      bool diverged = false;
      for (int epoch = 0; epoch < config_.recovery_epochs;) {
        if (!poll_control()) break;
        opt.ZeroGrad();
        nn::Variable g = gen.Forward();
        nn::Variable q = model_->VolumeFromTod(g, /*train=*/false, nullptr);
        nn::Variable v = model_->SpeedFromVolume(q);
        nn::Variable loss = build_loss(g, q, v);
        loss.Backward();
        opt.ClipGrad(config_.grad_clip);
        opt.Step();
        final_loss = loss.value()[0];
        if (!guard.EpochHealthy(final_loss, gen)) {
          StatusOr<TrainGuard::Rollback> rb =
              guard.TryRollback(&gen, &opt, /*rng=*/nullptr);
          if (!rb.ok()) {
            fit_statuses[restart] = rb.status();
            diverged = true;
            break;
          }
          epoch = rb->epoch;
          continue;
        }
        guard.Snapshot(epoch + 1, final_loss, gen, opt, /*rng_state=*/"");
        if (config_.verbose && epoch % 50 == 0) {
          LOG(INFO) << "recovery restart " << restart << " epoch " << epoch
                    << " loss " << final_loss;
        }
        ++epoch;
      }
      if (diverged) {
        // losses[restart] stays +inf: the restart is out of the running and
        // no checkpoint of its broken state is written.
        OVS_COUNTER_INC("trainer.recover.diverged_restarts");
        continue;
      }
      // A control abort discards the partial fit: no loss, no checkpoint.
      if (ctl_stop.load(std::memory_order_relaxed)) continue;
      losses[restart] = final_loss;
      obs::SetGaugeDynamic(
          "trainer.recover.restart_loss." + std::to_string(restart),
          final_loss);
      OVS_COUNTER_INC("trainer.recover.restarts");
      if (ck.enabled()) {
        TrainerCheckpoint ckpt;
        ckpt.stage = restart_stage(restart);
        ckpt.epoch = config_.recovery_epochs;
        ckpt.loss = final_loss;
        for (const auto& [name, v] : gen.NamedParameters()) {
          // ovs-lint: allow(alloc-in-parallel) — once-per-restart checkpoint
          ckpt.tensors.emplace_back(name, v.value());
        }
        // ovs-lint: allow(alloc-in-parallel) — once-per-restart checkpoint
        ckpt.tensors.emplace_back("seeds", gen.seeds());
        save_statuses[restart] = SaveTrainerCheckpoint(ckpt, restart_path(restart));
      }
    }
  });
  }
  if (ctl_stop.load(std::memory_order_relaxed)) {
    model_->tod_volume().SetTrainable(true);
    model_->volume_speed().SetTrainable(true);
    OVS_COUNTER_INC("trainer.recover.control_aborts");
    std::lock_guard<std::mutex> lock(ctl_mutex);
    return ctl_status;
  }
  for (int restart = 0; restart < restarts; ++restart) {
    if (!save_statuses[restart].ok()) {
      LOG(ERROR) << "recovery restart " << restart
                 << " checkpoint failed: " << save_statuses[restart].ToString();
    }
  }

  int best = 0;
  for (int restart = 1; restart < restarts; ++restart) {
    if (losses[restart] < losses[best]) best = restart;
  }
  if (!std::isfinite(losses[best])) {
    // Every restart diverged (or ended non-finite with the guard off):
    // surface an error instead of adopting garbage weights.
    model_->tod_volume().SetTrainable(true);
    model_->volume_speed().SetTrainable(true);
    for (int restart = 0; restart < restarts; ++restart) {
      if (!fit_statuses[restart].ok()) return fit_statuses[restart];
    }
    return Status::Internal("all " + std::to_string(restarts) +
                            " recovery restarts ended with non-finite loss");
  }
  for (int restart = 0; restart < restarts; ++restart) {
    if (!fit_statuses[restart].ok()) {
      LOG(WARNING) << "recovery restart " << restart
                   << " dropped: " << fit_statuses[restart].ToString();
    }
  }
  // Adopt the winner: the model's generator carries the best restart's
  // state, as if that restart had been the only (serial) fit.
  model_->tod_generation().CopyParametersFrom(*generators[best]);
  model_->tod_generation().set_seeds(generators[best]->seeds());
  nn::Tensor best_tod = model_->GenerateTod().value();

  model_->tod_volume().SetTrainable(true);
  model_->volume_speed().SetTrainable(true);
  last_recovery_loss_ = losses[best];
  OVS_GAUGE_SET("trainer.recover.best_loss", losses[best]);
  OVS_GAUGE_SET("trainer.recover.best_restart", static_cast<double>(best));
  return od::TodTensor(nn::ToDMat(best_tod));
}

}  // namespace ovs::core
