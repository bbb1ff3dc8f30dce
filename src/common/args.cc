#include "common/args.h"

#include <cstdlib>

#include "common/error.h"

namespace quake::common
{

namespace
{

/** Parse all of `text` as one number; throws naming --name. */
double
parseNumber(const std::string &name, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    QUAKE_EXPECT(end != text.c_str() && *end == '\0',
                 "--" << name << " expects a number, got '" << text
                      << "'");
    return v;
}

} // namespace

Args::Args(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            options[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options[body] = argv[++i];
        } else {
            options[body] = "true";
        }
    }
}

bool
Args::has(const std::string &name) const
{
    return options.count(name) > 0;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
}

long
Args::getInt(const std::string &name, long fallback) const
{
    auto it = options.find(name);
    if (it == options.end())
        return fallback;
    char *end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 10);
    QUAKE_EXPECT(end != it->second.c_str() && *end == '\0',
                 "--" << name << " expects an integer, got '"
                      << it->second << "'");
    return v;
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    auto it = options.find(name);
    return it == options.end() ? fallback : parseNumber(name, it->second);
}

std::vector<double>
Args::getDoubleList(const std::string &name) const
{
    std::vector<double> values;
    auto it = options.find(name);
    if (it == options.end())
        return values;
    const std::string &text = it->second;
    std::size_t begin = 0;
    for (;;) {
        const std::size_t comma = text.find(',', begin);
        values.push_back(
            parseNumber(name, text.substr(begin, comma - begin)));
        if (comma == std::string::npos)
            return values;
        begin = comma + 1;
    }
}

} // namespace quake::common
