/**
 * @file
 * Minimal command-line argument parser for the tools/ binaries.
 *
 * Accepts "--name value" and "--flag" styles; values are fetched with
 * typed getters that fatal() on malformed input so tools fail loudly.
 * A repeated option keeps every value: get() returns the last one,
 * getAll() all of them in order.
 */

#ifndef CACHELAB_TOOLS_ARGS_HH
#define CACHELAB_TOOLS_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace cachelab::tools
{

/** Parsed command line: options plus positional arguments. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string token = argv[i];
            if (token.rfind("--", 0) == 0) {
                const std::string name = token.substr(2);
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0) {
                    options_[name].push_back(argv[++i]);
                } else {
                    options_[name].push_back("");
                }
            } else {
                positional_.push_back(std::move(token));
            }
        }
    }

    bool has(const std::string &name) const
    {
        return options_.contains(name);
    }

    std::string
    get(const std::string &name, const std::string &fallback = "") const
    {
        const auto it = options_.find(name);
        return it == options_.end() ? fallback : it->second.back();
    }

    /** @return every value given for @p name, in command-line order. */
    std::vector<std::string>
    getAll(const std::string &name) const
    {
        const auto it = options_.find(name);
        return it == options_.end() ? std::vector<std::string>{}
                                    : it->second;
    }

    std::uint64_t
    getUint(const std::string &name, std::uint64_t fallback) const
    {
        const auto it = options_.find(name);
        if (it == options_.end())
            return fallback;
        const std::string &text = it->second.back();
        try {
            std::size_t pos = 0;
            const std::uint64_t v = std::stoull(text, &pos, 0);
            if (pos != text.size())
                fatal("--", name, ": bad number '", text, "'");
            return v;
        } catch (const std::exception &) {
            fatal("--", name, ": bad number '", text, "'");
        }
    }

    double
    getDouble(const std::string &name, double fallback) const
    {
        const auto it = options_.find(name);
        if (it == options_.end())
            return fallback;
        const std::string &text = it->second.back();
        try {
            std::size_t pos = 0;
            const double v = std::stod(text, &pos);
            if (pos != text.size())
                fatal("--", name, ": bad number '", text, "'");
            return v;
        } catch (const std::exception &) {
            fatal("--", name, ": bad number '", text, "'");
        }
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::vector<std::string>> options_;
    std::vector<std::string> positional_;
};

} // namespace cachelab::tools

#endif // CACHELAB_TOOLS_ARGS_HH
