/**
 * pbfsck — inspect and clean the daemon's persistence directories.
 *
 * The spool, the shared-cache segment dir, and the champion portfolio
 * all quarantine torn or corrupt files at boot (rename to
 * `*.quarantine`) instead of deleting them, so wreckage accumulates
 * until an operator looks at it. This tool is that look:
 *
 *   pbfsck list DIR...            every file, classified, quarantines
 *                                 flagged
 *   pbfsck inspect FILE...        dump a quarantined (or any) kv file
 *                                 and its KvFile::load verdict
 *   pbfsck purge [--temps] DIR... delete quarantine files (and, with
 *                                 --temps, `*.tmp` crash debris)
 *
 * Exit status: `list` exits 1 when any quarantine file exists (so CI
 * and cron can alarm on wreckage), 0 otherwise; `inspect` and `purge`
 * exit non-zero only on usage or I/O errors.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/fsck.h"
#include "support/kvfile.h"

using namespace petabricks;

namespace {

void
usage()
{
    std::cout <<
        "usage: pbfsck <command> [args]\n"
        "  list DIR...             classify every file; exit 1 if any\n"
        "                          *.quarantine files exist\n"
        "  inspect FILE...         print a file's contents with its\n"
        "                          classification and checksum verdict\n"
        "  purge [--temps] DIR...  delete *.quarantine files (and *.tmp\n"
        "                          with --temps)\n";
}

int
listDirs(const std::vector<std::string> &dirs)
{
    size_t quarantined = 0;
    for (const std::string &dir : dirs) {
        std::vector<fsck::ScanEntry> entries = fsck::scan(dir);
        std::cout << dir << ": " << entries.size() << " files\n";
        for (const fsck::ScanEntry &entry : entries) {
            std::cout << "  " << entry.path << "  ["
                      << fsck::kindName(entry.kind) << ", " << entry.bytes
                      << " bytes]";
            if (entry.kind == fsck::FileKind::Quarantine) {
                ++quarantined;
                std::cout << "  <-- wreckage";
            }
            std::cout << "\n";
        }
    }
    if (quarantined > 0) {
        std::cout << quarantined << " quarantined file(s) found\n";
        return 1;
    }
    return 0;
}

int
inspectFiles(const std::vector<std::string> &paths)
{
    int rc = 0;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "pbfsck: cannot open " << path << "\n";
            rc = 1;
            continue;
        }
        std::ostringstream content;
        content << in.rdbuf();
        std::cout << "==> " << path << " ["
                  << fsck::kindName(fsck::classify(path)) << ", "
                  << content.str().size() << " bytes]\n"
                  << content.str();
        if (!content.str().empty() && content.str().back() != '\n')
            std::cout << "\n(no trailing newline — torn write?)\n";
        // The verdict the stores' boot fsck acts on.
        try {
            KvFile::load(path);
            std::cout << "checksum: ok\n";
        } catch (const FatalError &e) {
            std::cout << "checksum: " << e.what() << "\n";
        }
    }
    return rc;
}

int
purgeDirs(const std::vector<std::string> &dirs, bool alsoTemps)
{
    size_t total = 0;
    for (const std::string &dir : dirs) {
        size_t removed = fsck::purge(dir, alsoTemps);
        std::cout << dir << ": removed " << removed << " file(s)\n";
        total += removed;
    }
    std::cout << "purged " << total << " file(s) total\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string command = argv[1];
    bool alsoTemps = false;
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--temps")
            alsoTemps = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else
            args.push_back(arg);
    }

    if (command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    if (args.empty()) {
        std::cerr << "pbfsck: " << command << " needs at least one path\n";
        return 2;
    }
    if (command == "list")
        return listDirs(args);
    if (command == "inspect")
        return inspectFiles(args);
    if (command == "purge")
        return purgeDirs(args, alsoTemps);

    std::cerr << "pbfsck: unknown command '" << command << "'\n";
    usage();
    return 2;
}
