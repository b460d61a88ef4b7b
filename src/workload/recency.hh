/**
 * @file
 * Recency pool: the temporal-locality engine of the workload model.
 *
 * Program behavior — as seen by an LRU cache — is characterized by
 * the distribution of LRU stack distances.  A RecencyPool maintains a
 * most-recently-used-ordered list of "sites" (loop locations, data
 * records, scan arrays) and samples the next site by *recency rank*
 * with a Zipf-like distribution: rank 0 (the most recent site) is the
 * most likely.  The exponent directly shapes the stack-distance
 * distribution and hence the miss-ratio-versus-cache-size curve, which
 * is exactly the knob the paper's per-workload miss-ratio bands need.
 *
 * Sampling can also return "no site" (with the configured new-site
 * probability, or when the sampled rank exceeds the pool's current
 * occupancy); the caller then creates a fresh site, which models
 * compulsory misses and program phase growth.
 */

#ifndef CACHELAB_WORKLOAD_RECENCY_HH
#define CACHELAB_WORKLOAD_RECENCY_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hh"

namespace cachelab
{

/**
 * MRU-ordered pool of sites with Zipf-by-rank sampling.
 *
 * @tparam Site site descriptor; cheap to move.
 */
template <typename Site>
class RecencyPool
{
  public:
    /**
     * @param capacity maximum retained sites (LRU beyond drop off).
     * @param theta Zipf exponent over recency ranks; larger = hotter.
     */
    RecencyPool(std::size_t capacity, double theta)
        : capacity_(capacity), sampler_(capacity, theta)
    {
        sites_.reserve(capacity);
    }

    /**
     * Sample a site by recency rank and promote it to most recent.
     *
     * @param new_site_prob probability of forcing a fresh site.
     * @return pointer to the promoted site (now at rank 0), or nullptr
     * when the caller should create a fresh site via insert().
     */
    Site *
    sample(Rng &rng, double new_site_prob)
    {
        if (sites_.empty() || rng.bernoulli(new_site_prob))
            return nullptr;
        const std::uint64_t rank = sampler_(rng);
        if (rank >= sites_.size())
            return nullptr;
        promote(static_cast<std::size_t>(rank));
        return &sites_.front();
    }

    /**
     * Insert a fresh site at rank 0, evicting the least recent site
     * when the pool is full.  @return reference to the stored site.
     */
    Site &
    insert(Site site)
    {
        // Shift every site one rank down; when full, the least recent
        // one falls off the end.
        if (sites_.size() < capacity_)
            sites_.emplace_back();
        std::move_backward(sites_.begin(), sites_.end() - 1, sites_.end());
        sites_.front() = std::move(site);
        return sites_.front();
    }

    std::size_t size() const { return sites_.size(); }
    bool empty() const { return sites_.empty(); }

    /** @return the most recently used site; pool must be nonempty. */
    Site &mostRecent() { return sites_.front(); }

    /** @return the sites, most recent first. */
    std::span<const Site> sites() const { return sites_; }

  private:
    void
    promote(std::size_t rank)
    {
        if (rank == 0)
            return;
        // One shift of ranks [0, rank) down by one.
        const auto at = sites_.begin() + static_cast<std::ptrdiff_t>(rank);
        Site site = std::move(*at);
        std::move_backward(sites_.begin(), at, at + 1);
        sites_.front() = std::move(site);
    }

    std::size_t capacity_;
    ZipfSampler sampler_;
    std::vector<Site> sites_;
};

} // namespace cachelab

#endif // CACHELAB_WORKLOAD_RECENCY_HH
