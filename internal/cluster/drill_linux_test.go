package cluster_test

import "syscall"

func init() {
	drillProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
