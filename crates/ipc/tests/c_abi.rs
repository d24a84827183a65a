//! The `mpf_*` C ABI from the other side: a C program, compiled with the
//! system `cc` against the `libmpf_ipc` cargo built next to this test,
//! runs the paper's primitives between the views of an anonymous region
//! and then between two handles of a named one.  Skipped (with a line
//! saying so) when there is no `cc` on `PATH`.

use std::path::PathBuf;
use std::process::Command;

const PROGRAM: &str = r#"
#include <stdio.h>
#include <string.h>

void *mpf_create(const char *region_name, int max_lnvcs, int max_processes);
void *mpf_attach(const char *region_name);
void *mpf_attach_view(void *h);
void mpf_detach(void *h);
int mpf_pid(void *h);
long long mpf_open_send(void *h, const char *lnvc_name);
long long mpf_open_receive(void *h, const char *lnvc_name, int protocol);
int mpf_close_send(void *h, long long lnvc_id);
int mpf_close_receive(void *h, long long lnvc_id);
int mpf_message_send(void *h, long long lnvc_id, const void *buf, long len);
long mpf_message_receive(void *h, long long lnvc_id, void *buf, long cap);
int mpf_check_receive(void *h, long long lnvc_id);

#define CHECK(cond) \
    do { if (!(cond)) { printf("line %d: %s\n", __LINE__, #cond); return 1; } } while (0)

/* One message from `sender` to `receiver`, two processes of one region. */
static int converse(void *sender, void *receiver) {
    char buf[32];
    CHECK(sender && receiver && mpf_pid(sender) != mpf_pid(receiver));
    long long rx = mpf_open_receive(receiver, "smoke", 0 /* FCFS */);
    long long tx = mpf_open_send(sender, "smoke");
    CHECK(rx >= 0 && tx == rx);
    CHECK(mpf_check_receive(receiver, rx) == 0);
    CHECK(mpf_message_send(sender, tx, "hello from C", 12) == 0);
    CHECK(mpf_check_receive(receiver, rx) == 1);
    CHECK(mpf_message_receive(receiver, rx, buf, 4) < 0); /* short buffer */
    CHECK(mpf_message_receive(receiver, rx, buf, sizeof buf) == 12);
    CHECK(memcmp(buf, "hello from C", 12) == 0);
    CHECK(mpf_close_send(sender, tx) == 0);
    CHECK(mpf_close_receive(receiver, rx) == 0);
    CHECK(mpf_close_receive(receiver, rx) < 0); /* deleted: the id is stale */
    mpf_detach(receiver);
    mpf_detach(sender);
    return 0;
}

int main(int argc, char **argv) {
    void *anon = mpf_create(NULL, 8, 4);
    if (converse(anon, mpf_attach_view(anon))) return 1;
    void *named = mpf_create(argv[argc - 1], 8, 4);
    if (converse(mpf_attach(argv[argc - 1]), named)) return 1;
    puts("c abi ok");
    return 0;
}
"#;

/// The directory holding the `libmpf_ipc` shared object of this build:
/// the test binary's own (`target/<profile>/deps`) or its parent.
fn library_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let deps = exe.parent().expect("deps directory");
    let lib = format!(
        "{}mpf_ipc{}",
        std::env::consts::DLL_PREFIX,
        std::env::consts::DLL_SUFFIX
    );
    let dir = [deps, deps.parent().expect("profile directory")]
        .into_iter()
        .find(|dir| dir.join(&lib).exists());
    match dir {
        Some(dir) => dir.to_path_buf(),
        None => panic!("no {lib} next to {}", exe.display()),
    }
}

#[test]
fn a_c_program_runs_the_primitives_on_anonymous_and_named_regions() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    if Command::new("cc").arg("--version").output().is_err() {
        println!("skipped: no `cc` on PATH");
        return;
    }
    let libs = library_dir();
    let dir = libs.join(format!("c-abi-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (source, program) = (dir.join("smoke.c"), dir.join("smoke"));
    std::fs::write(&source, PROGRAM).expect("write the C source");
    let cc = Command::new("cc")
        .arg(&source)
        .arg("-o")
        .arg(&program)
        .arg("-L")
        .arg(&libs)
        .arg("-lmpf_ipc")
        .output()
        .expect("run cc");
    assert!(
        cc.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&cc.stderr)
    );
    let run = Command::new(&program)
        .arg(format!("c-abi-{}", std::process::id()))
        .env("LD_LIBRARY_PATH", &libs)
        .output()
        .expect("run the C program");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (
            run.status.code(),
            String::from_utf8_lossy(&run.stdout).trim()
        ),
        (Some(0), "c abi ok"),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
}
