#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/prng.hpp"
#include "simdata/datasets.hpp"
#include "simdata/marker16s.hpp"

namespace perfbench {

namespace {

using namespace mrmc;

/// k=12, K=40, universal scheme, θ=0.9, LSH with the automatic band shape,
/// greedy sweep with the component-match estimator.
core::PipelineParams amplicon_params() {
  core::PipelineParams params;
  params.minhash = {.kmer = 12, .num_hashes = 40};
  params.mode = core::Mode::kGreedy;
  params.theta = 0.9;
  params.estimator = core::SketchEstimator::kComponentMatch;
  params.greedy_estimator = core::SketchEstimator::kComponentMatch;
  params.candidates.backend = core::candidates::Backend::kLshBanded;
  return params;
}

/// Table III's MrMC-MinH settings: canonical 5-mers, K=100, exact backend.
core::PipelineParams shotgun_params(core::Mode mode, double theta) {
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 100, .canonical = true};
  params.mode = mode;
  params.theta = theta;
  params.linkage = core::Linkage::kAverage;
  params.greedy_estimator = core::SketchEstimator::kSetBased;
  return params;
}

/// The reference community (genes, genomes, abundances) is the same for
/// every seed; the seed draws the sequenced sample from it.  Only sampling
/// noise then separates two seeds, so seed-to-seed spread stays small.
constexpr std::uint64_t kReferenceSeed = 2013;

simdata::LabeledReads amplicon_sample(std::size_t genes, std::size_t reads,
                                      std::size_t read_length,
                                      double error_rate, double sigma,
                                      std::uint64_t seed) {
  const auto gene_set = simdata::generate_16s_genes(genes, {}, kReferenceSeed);
  const std::vector<double> abundances =
      sigma > 0.0 ? simdata::lognormal_abundances(
                        genes, sigma, common::mix64(kReferenceSeed ^ 0xab))
                  : std::vector<double>(genes, 1.0);
  simdata::AmpliconParams amplicon;
  amplicon.read_length = read_length;
  amplicon.errors = simdata::ErrorModel::uniform(error_rate);
  return simdata::amplicon_reads(gene_set, abundances, reads, amplicon,
                                 common::mix64(seed + 1));
}

/// Table II sample S9 sequenced once from the fixed genomes with 5 % more
/// reads than needed; the seed picks which reads to drop and the rest keep
/// their run order.  The greedy sweep's labels depend on read order: a full
/// re-draw moved its ari_truth by up to 60 % between seeds, this by 1 %.
simdata::LabeledReads shotgun_sample(std::size_t reads, std::uint64_t seed) {
  simdata::WholeMetagenomeOptions options;
  options.reads = reads + reads / 20;
  options.read_length = 600;
  options.error_rate = 0.01;
  options.seed = kReferenceSeed;
  simdata::LabeledReads run = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S9"), options);
  std::vector<std::size_t> order(run.reads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  common::Xoshiro256 rng(common::mix64(seed));
  for (std::size_t i = 0; i < reads; ++i) {  // seeded partial Fisher-Yates
    std::swap(order[i], order[i + rng.bounded(order.size() - i)]);
  }
  order.resize(reads);
  std::sort(order.begin(), order.end());
  simdata::LabeledReads sample;
  sample.species = run.species;
  for (const std::size_t i : order) {
    sample.reads.push_back(std::move(run.reads[i]));
    sample.labels.push_back(run.labels[i]);
  }
  return sample;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // 200 K reads of 80 bp from 20 K equally abundant genes, 1 % error.
      {"amplicon_uniform", amplicon_params(),
       [](std::uint64_t seed) {
         return amplicon_sample(20'000, 200'000, 80, 0.01, 0.0, seed);
       }},
      // 50 K reads of 60 bp over 1 000 log-normal (σ=1.2) OTUs, 0.5 % error.
      {"amplicon_skewed", amplicon_params(),
       [](std::uint64_t seed) {
         return amplicon_sample(1'000, 50'000, 60, 0.005, 1.2, seed);
       }},
      {"shotgun_greedy", shotgun_params(core::Mode::kGreedy, 0.32),
       [](std::uint64_t seed) { return shotgun_sample(50'000, seed); }},
      {"shotgun_hier", shotgun_params(core::Mode::kHierarchical, 0.5),
       [](std::uint64_t seed) { return shotgun_sample(5'600, seed); }},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
